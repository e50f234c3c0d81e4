#include "layers.h"

#include <fstream>
#include <set>
#include <unordered_map>

#include "core/export_memory.h"
#include "obs/json.h"
#include "query/evaluator.h"
#include "relation/wire.h"
#include "util/random.h"

namespace codb::perfbench {

namespace {

// Spans kept for the trace file; the first traced ops fill it.
constexpr size_t kKeptSpans = 4000;
constexpr int kProbeReps = 5;
// Probe rows get keys clear of every seeded and inserted range.
constexpr int64_t kProbeKeyBase = 300'000'000;

// Layer metric of each span name the program emits.
const std::map<std::string, std::string>& SpanLayerMap() {
  static const std::map<std::string, std::string> kLayers = {
      {"net.deliver", "net.deliver_self_us"},
      {"update.request", "core.update.control_self_us"},
      {"update.link_closed", "core.update.control_self_us"},
      {"update.complete", "core.update.control_self_us"},
      {"update.ack", "core.update.control_self_us"},
      {"update.data", "core.update.data_self_us"},
      {"update.ship", "core.update.ship_self_us"},
      {"update.start", "core.update.start_self_us"},
      {"eval.full", "query.eval_self_us"},
      {"eval.delta", "query.eval_self_us"},
      {"update.rule_eval", "query.eval_self_us"},
      {"query.serve", "core.query.serve_self_us"},
      {"query.start", "core.query.flow_self_us"},
      {"query.request", "core.query.flow_self_us"},
      {"query.result", "core.query.flow_self_us"},
      {"storage.wal_append", "storage.wal_append_self_us"},
  };
  return kLayers;
}

double DurationNs(const TraceSpan& span) {
  return span.instant
             ? 0.0
             : static_cast<double>(span.end_wall_ns - span.start_wall_ns);
}

Database CopyOf(const Database& db) {
  Database copy;
  const DatabaseSchema schema = db.Schema();
  for (const RelationSchema& relation : schema.relations()) {
    MustOk(copy.CreateRelation(relation), "CreateRelation");
  }
  MustOk(copy.Restore(db.Snapshot()), "Restore");
  return copy;
}

std::vector<Tuple> ProbeRows(Rng& rng, int64_t first_key, int count) {
  std::vector<Tuple> rows;
  for (int j = 0; j < count; ++j) {
    rows.push_back(Tuple{Value::Int(first_key + j),
                         Value::Int(rng.UniformInt(0, 99))});
  }
  return rows;
}

}  // namespace

Counters Counters::Read(Testbed& bed) {
  Counters c;
  const TransportStats& stats = bed.network().stats();
  for (size_t i = 0; i < kFlowTypes.size(); ++i) {
    c.msgs[i] = stats.MessagesOfType(kFlowTypes[i]);
    c.bytes[i] = stats.BytesOfType(kFlowTypes[i]);
  }
  const MetricsSnapshot queue = bed.network().profiler().Snapshot();
  for (size_t k = 0; k < kCostClassCount; ++k) {
    const CostClass cls = static_cast<CostClass>(k);
    c.cost_bytes[k] = bed.cost().SentBytes(cls);
    auto it = queue.entries.find(std::string("queue.service_us.") +
                                 CostClassName(cls));
    if (it != queue.entries.end()) c.service_us[k] = it->second.sum;
  }
  for (const auto& node : bed.nodes()) {
    MetricsRegistry& metrics = node->statistics().metrics();
    c.eval_rows += metrics.GetCounter("update.eval_rows")->value();
    c.tuples_shipped += metrics.GetCounter("update.tuples_shipped")->value();
    c.dups_suppressed +=
        metrics.GetCounter("update.dups_suppressed")->value();
    c.memory_suppressed +=
        metrics.GetCounter("update.memory_suppressed")->value();
    c.wal_bytes += node->statistics().durability().wal_bytes_appended;
  }
  return c;
}

void Counters::AddDelta(const Counters& after, const Counters& before) {
  for (size_t i = 0; i < kFlowTypes.size(); ++i) {
    msgs[i] += after.msgs[i] - before.msgs[i];
    bytes[i] += after.bytes[i] - before.bytes[i];
  }
  for (size_t k = 0; k < kCostClassCount; ++k) {
    cost_bytes[k] += after.cost_bytes[k] - before.cost_bytes[k];
    service_us[k] += after.service_us[k] - before.service_us[k];
  }
  eval_rows += after.eval_rows - before.eval_rows;
  tuples_shipped += after.tuples_shipped - before.tuples_shipped;
  dups_suppressed += after.dups_suppressed - before.dups_suppressed;
  memory_suppressed += after.memory_suppressed - before.memory_suppressed;
  wal_bytes += after.wal_bytes - before.wal_bytes;
}

const std::vector<std::string>& SpanLayers::Names() {
  static const std::vector<std::string> kNames = [] {
    std::set<std::string> layers;
    for (const auto& [span, layer] : SpanLayerMap()) layers.insert(layer);
    std::vector<std::string> names(layers.begin(), layers.end());
    names.push_back("other_self_us");  // spans not in the map
    names.push_back("unattributed_us");
    return names;
  }();
  return kNames;
}

void SpanLayers::Harvest(double op_wall_us) {
  Tracer& tracer = Tracer::Global();
  std::vector<TraceSpan> spans = tracer.FinishedSpans();
  tracer.Clear();

  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<double> self_ns(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self_ns[i] = DurationNs(spans[i]);
  // A delivery span's parent is the sending span on another node; only
  // spans nested in their parent's interval on the same node and thread
  // are subtracted from it.
  for (const TraceSpan& span : spans) {
    auto parent = index_of.find(span.parent);
    if (span.instant || parent == index_of.end()) continue;
    const TraceSpan& p = spans[parent->second];
    if (p.node == span.node && p.thread == span.thread &&
        span.start_wall_ns >= p.start_wall_ns &&
        span.end_wall_ns <= p.end_wall_ns) {
      self_ns[parent->second] -= DurationNs(span);
    }
  }
  double covered_us = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto layer = SpanLayerMap().find(spans[i].name);
    const std::string& name =
        layer == SpanLayerMap().end() ? "other_self_us" : layer->second;
    self_us_[name] += self_ns[i] / 1000.0;
    covered_us += self_ns[i] / 1000.0;
  }
  self_us_["unattributed_us"] += op_wall_us - covered_us;
  ++ops_;
  spans_seen_ += spans.size();
  for (TraceSpan& span : spans) {
    if (kept_.size() >= kKeptSpans) break;
    kept_.push_back(std::move(span));
  }
}

std::map<std::string, double> SpanLayers::PerOp() const {
  std::map<std::string, double> out;
  for (const std::string& name : Names()) {
    auto it = self_us_.find(name);
    out[name] = it == self_us_.end() || ops_ == 0
                    ? 0.0
                    : it->second / static_cast<double>(ops_);
  }
  return out;
}

Status SpanLayers::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open '" + path + "'");
  for (const TraceSpan& span : kept_) {
    JsonValue line = JsonValue::Object();
    line.Set("id", JsonValue::Uint(span.id));
    line.Set("parent", JsonValue::Uint(span.parent));
    line.Set("node", JsonValue::Uint(span.node));
    line.Set("thread", JsonValue::Uint(span.thread));
    line.Set("name", JsonValue::Str(span.name));
    if (!span.flow.empty()) line.Set("flow", JsonValue::Str(span.flow));
    line.Set("start_wall_ns", JsonValue::Uint(span.start_wall_ns));
    line.Set("wall_ns", JsonValue::Uint(span.end_wall_ns - span.start_wall_ns));
    line.Set("ts_us", JsonValue::Int(span.start_vt_us));
    line.Set("dur_us", JsonValue::Int(span.end_vt_us - span.start_vt_us));
    out << line.Dump() << '\n';
  }
  out.close();
  if (!out) return Status::Unavailable("short write to '" + path + "'");
  return Status::Ok();
}

std::vector<Probe> RunProbes(Workload& workload) {
  const NetworkConfig& config = workload.generated().config;
  const CoordinationRule* rule = nullptr;
  for (const CoordinationRule& candidate : config.rules()) {
    if (candidate.importer() == "n0" && candidate.exporter() == "n1") {
      rule = &candidate;
    }
  }
  if (rule == nullptr) {
    Fatal("probes", Status::NotFound("no rule n0 <- n1"));
  }
  const Database& exporter = NodeOf(workload.bed(), "n1").database();
  const Database& importer = NodeOf(workload.bed(), "n0").database();
  // The frontier: head variables the body binds.
  const std::set<std::string> body_vars = rule->query().BodyVars();
  std::vector<std::string> frontier;
  for (const std::string& var : rule->query().HeadVars()) {
    if (body_vars.count(var) != 0) frontier.push_back(var);
  }
  const DatabaseSchema exporter_schema = config.SchemaOf("n1");

  Probe store_copy{"relation.store_copy_ms", "ms", {}};
  Probe eval_full{"query.eval_full_ms", "ms", {}};
  Probe delta_first{"query.eval_delta_us.first", "us", {}};
  Probe delta_repeat{"query.eval_delta_us.repeat", "us", {}};
  Probe encode{"relation.wire_encode_ns_per_tuple", "ns", {}};
  Probe decode{"relation.wire_decode_ns_per_tuple", "ns", {}};
  Probe insert{"relation.insert_ns_per_tuple", "ns", {}};
  Probe record{"core.export_memory_ns_per_tuple.record", "ns", {}};
  Probe seen{"core.export_memory_ns_per_tuple.seen", "ns", {}};
  Rng rng(kProbeKeyBase);
  int64_t next_key = kProbeKeyBase;

  for (int rep = 0; rep < kProbeReps; ++rep) {
    // The query overlay's copy-on-start of the importer's store.
    Clock::time_point start = Clock::now();
    Database importer_copy = CopyOf(importer);
    store_copy.samples.Add(MicrosSince(start) / 1000.0);

    // A full evaluation of the rule body at the exporter, then 10-row
    // deltas: the first pays for the full pass's dedup state.
    Database exporter_copy = CopyOf(exporter);
    CompiledQuery query = Must(
        CompiledQuery::Compile(rule->query(), exporter_schema, frontier),
        "CompiledQuery::Compile");
    start = Clock::now();
    const std::vector<Tuple> batch = query.Evaluate(exporter_copy);
    eval_full.samples.Add(MicrosSince(start) / 1000.0);
    for (Probe* probe : {&delta_first, &delta_repeat}) {
      const std::vector<Tuple> delta = ProbeRows(rng, next_key, 10);
      next_key += 10;
      Relation* d = exporter_copy.Find("d");
      for (const Tuple& row : delta) d->Insert(row);
      start = Clock::now();
      query.EvaluateDelta(exporter_copy, "d", delta);
      probe->samples.Add(MicrosSince(start));
    }
    if (batch.empty()) {
      Fatal("probes", Status::Internal("the rule body derives nothing"));
    }
    const double per_tuple = 1000.0 / static_cast<double>(batch.size());

    // The evaluated batch on the wire, both ways.
    start = Clock::now();
    WireWriter writer;
    writer.WriteTuples(batch);
    encode.samples.Add(MicrosSince(start) * per_tuple);
    const std::vector<uint8_t> wire = writer.Take();
    start = Clock::now();
    WireReader reader(wire);
    Result<std::vector<Tuple>> decoded = reader.ReadTuples();
    decode.samples.Add(MicrosSince(start) * per_tuple);
    if (!decoded.ok() || decoded.value().size() != batch.size()) {
      Fatal("probes", Status::Internal("wire round trip lost tuples"));
    }

    // The batch arriving at the importer as new rows: keys moved clear
    // of its store.
    std::vector<Tuple> arriving;
    for (const Tuple& tuple : batch) {
      std::vector<Value> values(tuple.begin(), tuple.end());
      values[0] = Value::Int(values[0].AsInt() + next_key);
      arriving.emplace_back(values);
    }
    next_key += 1'000'000;
    Relation* target = importer_copy.Find("d");
    start = Clock::now();
    for (const Tuple& tuple : arriving) target->Insert(tuple);
    insert.samples.Add(MicrosSince(start) * per_tuple);

    ExportMemory memory;
    start = Clock::now();
    for (const Tuple& tuple : batch) memory.Record(rule->id(), tuple);
    record.samples.Add(MicrosSince(start) * per_tuple);
    size_t hits = 0;
    start = Clock::now();
    for (const Tuple& tuple : batch) hits += memory.Seen(rule->id(), tuple);
    seen.samples.Add(MicrosSince(start) * per_tuple);
    if (hits != batch.size()) {
      Fatal("probes", Status::Internal("export memory lost frontiers"));
    }
  }
  return {store_copy, eval_full, delta_first, delta_repeat, encode,
          decode,     insert,    record,      seen};
}

}  // namespace codb::perfbench
