// Tests for the observability layer (src/obs/): the metrics registry,
// histogram bucketing, snapshot merge/serialize round-trips, the flow
// tracer's span bookkeeping, a golden end-to-end trace of a 3-node
// global update whose span counts must agree with the statistics module,
// and the wire-cost ledger / queue profiler (the network's per-class
// counts checked exactly against the sum of the peers' own ledgers).

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "net/fault.h"
#include "obs/cost_ledger.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

// Count stored in a snapshot histogram's (sparse) bucket list.
uint64_t BucketCount(const MetricValue& entry, size_t bucket) {
  for (const auto& [index, count] : entry.buckets) {
    if (index == bucket) return count;
  }
  return 0;
}

// Resets the global tracer around every tracer test; the tracer is a
// process-wide singleton, so tests must not leak spans into each other.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsTest, CounterAndGaugeRoundTrip) {
  MetricsRegistry registry;
  Counter* hits = registry.GetCounter("cache.hits");
  hits->Add();
  hits->Add(4);
  registry.GetGauge("queue.depth")->Set(7);
  ASSERT_EQ(registry.GetCounter("cache.hits"), hits);  // same instrument

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.entries.at("cache.hits").value, 5);
  EXPECT_EQ(snapshot.entries.at("queue.depth").value, 7);
}

TEST(MetricsTest, HistogramBucketing) {
  // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(HistogramBucketOf(0), 0u);
  EXPECT_EQ(HistogramBucketOf(1), 1u);
  EXPECT_EQ(HistogramBucketOf(2), 2u);
  EXPECT_EQ(HistogramBucketOf(3), 2u);
  EXPECT_EQ(HistogramBucketOf(4), 3u);
  EXPECT_EQ(HistogramBucketOf(1023), 10u);
  EXPECT_EQ(HistogramBucketOf(1024), 11u);
  EXPECT_EQ(HistogramBucketOf(UINT64_MAX), kHistogramBuckets - 1);

  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("handler.us");
  for (uint64_t value : {0u, 1u, 2u, 3u, 100u, 100u}) {
    latency->Record(value);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricValue& entry = snapshot.entries.at("handler.us");
  EXPECT_EQ(entry.kind, MetricKind::kHistogram);
  EXPECT_EQ(entry.value, 6);    // count
  EXPECT_EQ(entry.sum, 206);
  EXPECT_EQ(BucketCount(entry, 0), 1u);
  EXPECT_EQ(BucketCount(entry, 1), 1u);
  EXPECT_EQ(BucketCount(entry, 2), 2u);
  EXPECT_EQ(BucketCount(entry, HistogramBucketOf(100)), 2u);
}

TEST(MetricsTest, KindCollisionGetsSuffixedName) {
  MetricsRegistry registry;
  registry.GetCounter("x")->Add(1);
  Gauge* gauge = registry.GetGauge("x");  // same name, different kind
  gauge->Set(9);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.entries.at("x").value, 1);
  EXPECT_EQ(snapshot.entries.at("x.gauge").value, 9);
}

TEST(MetricsTest, SnapshotMerge) {
  MetricsRegistry a;
  a.GetCounter("msgs")->Add(3);
  a.GetGauge("depth")->Set(5);
  a.GetHistogram("lat")->Record(2);

  MetricsRegistry b;
  b.GetCounter("msgs")->Add(4);
  b.GetGauge("depth")->Set(9);
  b.GetHistogram("lat")->Record(100);
  b.GetCounter("only_b")->Add(1);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.entries.at("msgs").value, 7);       // counters add
  EXPECT_EQ(merged.entries.at("depth").value, 9);      // gauges take max
  EXPECT_EQ(merged.entries.at("lat").value, 2);        // counts add
  EXPECT_EQ(merged.entries.at("lat").sum, 102);
  EXPECT_EQ(merged.entries.at("only_b").value, 1);
}

TEST(MetricsTest, SnapshotSerializeRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(12);
  registry.GetGauge("b.depth")->Set(-3);
  registry.GetHistogram("c.lat")->Record(7);
  registry.GetHistogram("c.lat")->Record(900);
  MetricsSnapshot snapshot = registry.Snapshot();

  WireWriter writer;
  snapshot.SerializeTo(writer);
  std::vector<uint8_t> bytes = writer.Take();
  WireReader reader(bytes);
  Result<MetricsSnapshot> restored = MetricsSnapshot::DeserializeFrom(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.AtEnd());

  ASSERT_EQ(restored.value().entries.size(), snapshot.entries.size());
  for (const auto& [name, value] : snapshot.entries) {
    const MetricValue& other = restored.value().entries.at(name);
    EXPECT_EQ(other.kind, value.kind) << name;
    EXPECT_EQ(other.value, value.value) << name;
    EXPECT_EQ(other.sum, value.sum) << name;
    EXPECT_EQ(other.buckets, value.buckets) << name;
  }
}

TEST(MetricsTest, RenderAndJsonAgree) {
  MetricsRegistry registry;
  registry.GetCounter("net.messages")->Add(42);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_NE(snapshot.Render().find("net.messages"), std::string::npos);
  EXPECT_NE(snapshot.Render().find("42"), std::string::npos);
  EXPECT_EQ(snapshot.ToJson().GetNumber("net.messages"), 42);
}

// ---------------------------------------------------------------------------
// Tracer span bookkeeping

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  uint64_t span = tracer.BeginSpan(1, "work");
  EXPECT_EQ(span, 0u);
  tracer.EndSpan(span);
  EXPECT_EQ(tracer.NoteSend(), 0u);
  EXPECT_TRUE(tracer.FinishedSpans().empty());
}

TEST_F(TracerTest, SpansOpenAndCloseBalanced) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();

  uint64_t outer = tracer.BeginSpan(1, "outer", "flow/1");
  ASSERT_NE(outer, 0u);
  EXPECT_EQ(tracer.open_span_count(), 1u);
  uint64_t inner = tracer.BeginSpanHere("inner");
  ASSERT_NE(inner, 0u);
  EXPECT_EQ(tracer.open_span_count(), 2u);
  tracer.EndSpan(inner);
  tracer.EndSpan(outer);
  EXPECT_EQ(tracer.open_span_count(), 0u);

  std::vector<TraceSpan> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpan& inner_span =
      spans[0].name == "inner" ? spans[0] : spans[1];
  const TraceSpan& outer_span =
      spans[0].name == "outer" ? spans[0] : spans[1];
  EXPECT_EQ(inner_span.parent, outer_span.id);
  EXPECT_EQ(inner_span.node, outer_span.node);  // inherited
  EXPECT_EQ(outer_span.flow, "flow/1");
  EXPECT_EQ(outer_span.parent, 0u);
}

TEST_F(TracerTest, BeginSpanHereWithoutContextIsNoop) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  EXPECT_EQ(tracer.BeginSpanHere("orphan"), 0u);
  EXPECT_TRUE(tracer.FinishedSpans().empty());
}

TEST_F(TracerTest, ScopedSpanClosesOnDestruction) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  {
    ScopedSpan span(tracer.BeginSpan(2, "scoped"));
    EXPECT_EQ(tracer.open_span_count(), 1u);
  }
  EXPECT_EQ(tracer.open_span_count(), 0u);
  EXPECT_EQ(tracer.FinishedSpans().size(), 1u);
}

TEST_F(TracerTest, LinkDeliveryParentsAcrossNodes) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();

  uint64_t sender = tracer.BeginSpan(1, "send_side");
  uint64_t correlation = tracer.NoteSend();
  ASSERT_NE(correlation, 0u);
  tracer.EndSpan(sender);

  uint64_t delivery = tracer.BeginSpan(2, "net.deliver");
  tracer.LinkDelivery(correlation, delivery);
  tracer.EndSpan(delivery);

  std::vector<TraceSpan> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpan& delivered =
      spans[0].name == "net.deliver" ? spans[0] : spans[1];
  EXPECT_EQ(delivered.parent, sender);
  EXPECT_EQ(delivered.link_in, correlation);
  ASSERT_EQ(tracer.Edges().size(), 1u);
  EXPECT_EQ(tracer.Edges()[0].from_span, sender);
  EXPECT_EQ(tracer.Edges()[0].to_span, delivery);
}

// ---------------------------------------------------------------------------
// Golden trace: 3-node chain update

class GoldenTraceTest : public TracerTest {};

TEST_F(GoldenTraceTest, ThreeNodeUpdateProducesCorrelatedSpanTree) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  bed.network().Run();
  tracer.Disable();
  ASSERT_TRUE(bed.AllComplete(update.value()));
  EXPECT_EQ(tracer.open_span_count(), 0u);  // every span was closed

  const std::string flow = update.value().ToString();
  std::vector<TraceSpan> spans = tracer.FinishedSpans();
  ASSERT_FALSE(spans.empty());

  // Exactly one root: the initiating node's update.start span.
  std::map<uint64_t, const TraceSpan*> by_id;
  for (const TraceSpan& span : spans) by_id[span.id] = &span;
  size_t roots = 0;
  for (const TraceSpan& span : spans) {
    if (span.parent != 0) {
      ASSERT_TRUE(by_id.count(span.parent) > 0)
          << "dangling parent on " << span.name;
      continue;
    }
    ++roots;
    EXPECT_EQ(span.name, "update.start");
    EXPECT_EQ(span.flow, flow);
    EXPECT_EQ(bed.network().NameOf(PeerId{span.node}), "n0");
  }
  EXPECT_EQ(roots, 1u);

  // One update.data span per data message the statistics modules counted.
  uint64_t data_messages = 0;
  for (const auto& node : bed.nodes()) {
    const UpdateReport* report =
        node->statistics().FindReport(update.value());
    if (report != nullptr) data_messages += report->data_messages_received;
  }
  size_t data_spans = 0;
  for (const TraceSpan& span : spans) {
    if (span.name == "update.data" && span.flow == flow) ++data_spans;
  }
  EXPECT_GT(data_messages, 0u);
  EXPECT_EQ(data_spans, data_messages);

  // The Chrome export is valid JSON and every X event nests under the
  // tree (args.span/args.parent mirror the span ids).
  std::string dumped = tracer.ExportChromeTrace().Dump();
  Result<JsonValue> parsed = ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<uint64_t> exported_ids;
  size_t x_events = 0;
  for (const JsonValue& event : events->items()) {
    if (event.GetString("ph") != "X") continue;
    ++x_events;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    exported_ids.insert(static_cast<uint64_t>(args->GetNumber("span")));
  }
  for (const JsonValue& event : events->items()) {
    if (event.GetString("ph") != "X") continue;
    uint64_t parent = static_cast<uint64_t>(
        event.Find("args")->GetNumber("parent"));
    if (parent != 0) {
      EXPECT_TRUE(exported_ids.count(parent) > 0)
          << event.GetString("name") << " parent missing from export";
    }
  }
  size_t interval_spans = 0;
  for (const TraceSpan& span : spans) {
    if (!span.instant) ++interval_spans;
  }
  EXPECT_EQ(x_events, interval_spans);

  // Flow arrows: one s+f pair per recorded message hop.
  size_t arrows = 0;
  for (const JsonValue& event : events->items()) {
    std::string ph = event.GetString("ph");
    if (ph == "s" || ph == "f") ++arrows;
  }
  EXPECT_EQ(arrows, tracer.Edges().size() * 2);

  // The JSONL export parses line by line.
  std::string jsonl = tracer.ExportJsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) break;
    Result<JsonValue> line = ParseJson(jsonl.substr(start, end - start));
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, spans.size() + tracer.Edges().size());
}

// ---------------------------------------------------------------------------
// Snapshot merge across histogram spans

// A report serialized by a peer running a different build may carry
// bucket indexes beyond this build's kHistogramBuckets. Both the wire
// decoder and Merge must clamp them into the top bucket instead of
// growing the array or corrupting quantiles.
TEST(MetricsTest, MergeClampsOutOfRangeBuckets) {
  MetricValue alien;
  alien.kind = MetricKind::kHistogram;
  alien.value = 7;
  alien.sum = 700;
  alien.buckets = {{3, 2}, {80, 4}, {200, 1}};  // 80 and 200 out of range

  MetricsSnapshot foreign;
  foreign.entries["lat"] = alien;

  // Wire round-trip clamps: 80 and 200 coalesce into the top bucket.
  WireWriter writer;
  foreign.SerializeTo(writer);
  std::vector<uint8_t> bytes = writer.Take();
  WireReader reader(bytes);
  Result<MetricsSnapshot> decoded = MetricsSnapshot::DeserializeFrom(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const MetricValue& wire = decoded.value().entries.at("lat");
  EXPECT_EQ(wire.value, 7);
  EXPECT_EQ(BucketCount(wire, 3), 2u);
  EXPECT_EQ(BucketCount(wire, kHistogramBuckets - 1), 5u);
  EXPECT_EQ(BucketCount(wire, 80), 0u);

  // Merge clamps too, summing into this build's top bucket.
  MetricsRegistry local;
  local.GetHistogram("lat")->Record(5);
  MetricsSnapshot merged = local.Snapshot();
  merged.Merge(foreign);
  const MetricValue& entry = merged.entries.at("lat");
  EXPECT_EQ(entry.value, 8);  // 1 local + 7 foreign
  uint64_t total = 0;
  for (const auto& [index, count] : entry.buckets) {
    EXPECT_LT(index, kHistogramBuckets);  // nothing escaped the clamp
    total += count;
  }
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(BucketCount(entry, kHistogramBuckets - 1), 5u);
  // Quantiles and JSON stay well-defined on the clamped form.
  EXPECT_LE(MetricsSnapshot::Quantile(entry, 0.99),
            HistogramBucketLow(kHistogramBuckets - 1));
  EXPECT_EQ(merged.ToJson().Find("lat")->GetNumber("count"), 8);
}

// ---------------------------------------------------------------------------
// Cost ledger

// Per class, the sums of every node's and super-peer's own ledger.
struct PeerTotals {
  std::array<CostLedger::Totals, kCostClassCount> sent{};
  std::array<CostLedger::Totals, kCostClassCount> received{};
};

PeerTotals SumPeerLedgers(Testbed& bed) {
  PeerTotals totals;
  auto add = [&totals](const CostLedger& ledger) {
    for (size_t c = 0; c < kCostClassCount; ++c) {
      const CostClass cls = static_cast<CostClass>(c);
      totals.sent[c].messages += ledger.Sent(cls).messages;
      totals.sent[c].bytes += ledger.Sent(cls).bytes;
      totals.received[c].messages += ledger.Received(cls).messages;
      totals.received[c].bytes += ledger.Received(cls).bytes;
    }
  };
  for (const auto& node : bed.nodes()) add(node->statistics().cost());
  for (size_t s = 0; s < bed.super_peer_count(); ++s) {
    add(bed.super_peer(s).cost());
  }
  return totals;
}

TEST(CostLedgerTest, GoldenThreeNodeByteAccounting) {
  WorkloadOptions workload;
  workload.nodes = 3;
  workload.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(workload);
  Testbed::Options options;
  options.profiling = true;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  ASSERT_TRUE(bed.AllComplete(update.value()));
  ASSERT_TRUE(bed.CollectStats().ok());

  // Golden cross-check: every message has one sender and one receiver,
  // each with an attached ledger, so per class the network's ledger must
  // equal the sum of the peers' ledgers EXACTLY, on both sides.
  const CostLedger& cost = bed.cost();
  const PeerTotals peers = SumPeerLedgers(bed);
  uint64_t total_bytes = 0;
  for (size_t c = 0; c < kCostClassCount; ++c) {
    CostClass cls = static_cast<CostClass>(c);
    SCOPED_TRACE(CostClassName(cls));
    EXPECT_EQ(cost.Sent(cls).messages, peers.sent[c].messages);
    EXPECT_EQ(cost.Sent(cls).bytes, peers.sent[c].bytes);
    EXPECT_EQ(cost.Received(cls).messages, peers.received[c].messages);
    EXPECT_EQ(cost.Received(cls).bytes, peers.received[c].bytes);
    // No faults and no dead peers: everything sent was delivered.
    EXPECT_EQ(cost.Received(cls).bytes, cost.Sent(cls).bytes);
    total_bytes += cost.Sent(cls).bytes;
  }
  EXPECT_EQ(cost.total_bytes(), total_bytes);
  EXPECT_GT(cost.SentBytes(CostClass::kData), 0u);
  EXPECT_GT(cost.SentBytes(CostClass::kConfig), 0u);
  EXPECT_EQ(cost.SentBytes(CostClass::kRetransmit), 0u);

  // The per-node breakdown rode the kStatsReport trailer: the super's
  // merged metrics carry cost.* counters, and the rendered table shows
  // every per-node class (config/federation are super-side only).
  MetricsSnapshot merged = bed.super_peer().MergedMetrics();
  EXPECT_GT(merged.entries.at("cost.sent.data.bytes").value, 0);
  EXPECT_GT(merged.entries.at("cost.recv.config.bytes").value, 0);
  std::string table = RenderCostBreakdown(merged);
  EXPECT_NE(table.find("data"), std::string::npos);
  EXPECT_NE(table.find("config"), std::string::npos);
}

TEST(CostLedgerTest, LossyRingChargesRetransmitClass) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 3;
  GeneratedNetwork generated = MakeRing(workload);

  Testbed::Options options;
  options.profiling = true;
  options.fault = FaultProfile::Drop(0.25, /*seed=*/11);
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 20'000;
  options.node.reliability.max_retries = 10;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  ASSERT_TRUE(bed.AllComplete(update.value()));

  // Losses forced resends; the ledger charges each to the retransmit
  // class (at send time, whether or not the fault injector then drops the
  // copy), so its message count equals the reliability layer's own count
  // of resends exactly.
  uint64_t resends = 0;
  for (const auto& node : bed.nodes()) {
    MetricsRegistry& metrics = node->statistics().metrics();
    resends += metrics.GetCounter("update.retransmits")->value() +
               metrics.GetCounter("query.retransmits")->value();
  }
  EXPECT_GT(resends, 0u);
  EXPECT_EQ(bed.cost().Sent(CostClass::kRetransmit).messages, resends);
  EXPECT_GT(bed.cost().SentBytes(CostClass::kRetransmit), 0u);
}

TEST(CostLedgerTest, ProfilingChangesNoNetworkCount) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(workload);
  Testbed::Options options;
  options.profiling = true;
  Result<std::unique_ptr<Testbed>> plain = Testbed::Create(generated);
  Result<std::unique_ptr<Testbed>> profiled =
      Testbed::Create(generated, options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_TRUE(plain.value()->RunGlobalUpdate("n0").ok());
  ASSERT_TRUE(profiled.value()->RunGlobalUpdate("n0").ok());

  const CostLedger& a = plain.value()->network().stats();
  const CostLedger& b = profiled.value()->network().stats();
  EXPECT_GT(a.total_messages(), 0u);
  for (size_t raw = 0; raw < kMessageTypeLimit; ++raw) {
    const MessageType type = static_cast<MessageType>(raw);
    SCOPED_TRACE(MessageTypeName(type));
    EXPECT_EQ(a.MessagesOfType(type), b.MessagesOfType(type));
    EXPECT_EQ(a.BytesOfType(type), b.BytesOfType(type));
  }
  for (size_t c = 0; c < kCostClassCount; ++c) {
    const CostClass cls = static_cast<CostClass>(c);
    SCOPED_TRACE(CostClassName(cls));
    EXPECT_EQ(a.Sent(cls).messages, b.Sent(cls).messages);
    EXPECT_EQ(a.Sent(cls).bytes, b.Sent(cls).bytes);
    EXPECT_EQ(a.Received(cls).messages, b.Received(cls).messages);
    EXPECT_EQ(a.Received(cls).bytes, b.Received(cls).bytes);
  }
}

// ---------------------------------------------------------------------------
// Queue profiler

TEST(QueueProfilerTest, OffByDefaultThenInstrumentsWhenEnabled) {
  WorkloadOptions workload;
  workload.nodes = 3;
  workload.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(workload);

  // Default testbed: profiling stays off, the profiler snapshots to
  // nothing (no instruments were ever registered) and no peer's own
  // ledger is attached, so each stays empty.
  {
    Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    EXPECT_FALSE(bed.value()->network().profiler().enabled());
    EXPECT_TRUE(bed.value()->network().profiler().Snapshot().empty());
    for (const auto& node : bed.value()->nodes()) {
      EXPECT_TRUE(node->statistics().cost().empty()) << node->name();
    }
    EXPECT_TRUE(bed.value()->super_peer().cost().empty());
  }

  // Profiling testbed: the event loops record sojourn + service time per
  // class and the depth watermarks move.
  Testbed::Options options;
  options.profiling = true;
  Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated, options);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  MetricsSnapshot profile = bed.value()->network().profiler().Snapshot();
  const MetricValue& sojourn = profile.entries.at("queue.sojourn_us.data");
  EXPECT_EQ(sojourn.kind, MetricKind::kHistogram);
  EXPECT_GT(sojourn.value, 0);
  EXPECT_GT(profile.entries.at("queue.service_us.config").value, 0);
  EXPECT_GT(profile.entries.at("queue.depth.fg").value, 0);
}

}  // namespace
}  // namespace codb
