// codb_perfbench: runs one workload of the coDB benchmark for a fixed time,
// checks its outputs and prints its metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   codb_perfbench --workload <full_sync|incr_stream|query_mix> --seed <n>
//                  --seconds <s> --trace <0|1>
//                  [--scratch <dir>] [--trace-out <file.jsonl>]
//
// --trace 0 measures the end-to-end metrics with the tracer, cost ledger and
// queue profiler off. --trace 1 profiles the deployment, traces every other
// op, probes single layers after the loop and prints the per-layer metrics.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "workloads.h"

namespace codb::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

// Moves the calling thread to `cpu`; if the system refuses, it stays.
void MoveTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssKb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

// The latency metric name of each op kind in the per-kind table.
const char* LatencyName(OpKind kind) {
  switch (kind) {
    case OpKind::kFullUpdate:
      return "full_update_ms";
    case OpKind::kIncrUpdate:
      return "incr_update_ms";
    case OpKind::kDistQuery:
      return "dist_query_ms";
    case OpKind::kLocalQuery:
      return "local_query_us";
  }
  return "op_ms";
}

std::string Lower(const char* text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // 0: a count or a ratio of counts
  std::string note;
};

// One op of the measured phase.
struct TimedOp {
  OpKind kind;
  size_t window;  // index into Phase::window_seconds
  double wall_us;
};

// Everything the measured phase of one run collected.
struct Phase {
  std::vector<TimedOp> ops;             // in op order
  std::vector<double> window_seconds;   // loop time of each window
  std::array<Samples, kOpKinds> virtual_us;
  Samples headline_untraced_us;
  Samples headline_traced_us;
  // Untraced headline ops by their index on their deployment (drift).
  std::vector<std::pair<uint64_t, double>> headline_by_position;
  std::map<std::string, double> call_us;  // benchmark spans, untraced ops
  uint64_t untraced_ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  uint64_t wire_bytes = 0;
  double seconds = 0;  // loop wall time without the output checks
  double peak_rss_mb = 0;
  double rss_start_kb = 0;  // traced run: after the first op
  double rss_end_kb = 0;
  uint64_t rss_ops = 0;  // ops between the two readings
  Counters counters;      // measured phase (traced run)
  Counters setup;         // summed over the set-ups seen (traced run)
  uint64_t setups_seen = 0;
  SpanLayers spans;
};

void RunPhase(Workload& workload, const Args& args, Phase* phase) {
  for (int i = 0; i < workload.setups(); ++i) workload.SetUp();
  if (args.trace && workload.setups() > 0) {
    phase->setup.AddDelta(Counters::Read(workload.bed()), Counters());
    phase->setups_seen = 1;
  }
  const Clock::time_point begin = Clock::now();
  // Loop time leaves out the pauses: set-ups, counter reads, checks.
  double paused_us = 0;
  Clock::time_point window_begin = begin;
  double window_paused_us = 0;
  auto resume = [&](Clock::time_point pause) {
    const double us = MicrosSince(pause);
    paused_us += us;
    window_paused_us += us;
  };
  // On a shared host a CPU runs as fast as the tenants of its physical
  // core let it, often for minutes; a run that stayed on the CPU it
  // started on would measure that CPU. Window w runs on CPU w mod n.
  const std::vector<int> cpus = AllowedCpus();
  if (!cpus.empty()) MoveTo(cpus[0]);
  auto close_window = [&] {
    phase->window_seconds.push_back(
        (MicrosSince(window_begin) - window_paused_us) / 1e6);
    if (!cpus.empty()) {
      MoveTo(cpus[phase->window_seconds.size() % cpus.size()]);
    }
    window_begin = Clock::now();
    window_paused_us = 0;
  };
  const uint64_t per_deployment = workload.ops_per_deployment();
  const uint64_t per_window = workload.ops_per_window();
  for (uint64_t i = 0;; ++i) {
    // The loop ends on a whole window, unless ops have become so slow that
    // a whole one would overrun the run three times.
    const bool boundary = i % per_window == 0;
    if (boundary && i > 0) close_window();
    const double elapsed_s = MicrosSince(begin) / 1e6;
    if (elapsed_s >= args.seconds &&
        (boundary || elapsed_s >= 3 * args.seconds)) {
      if (!boundary) close_window();
      break;
    }
    Clock::time_point pause = Clock::now();
    if (per_deployment > 0 && i > 0 && i % per_deployment == 0) {
      workload.SetUp();
      resume(pause);
    }
    workload.Prepare(i);
    pause = Clock::now();
    Testbed& bed = workload.bed();
    Counters before;
    if (args.trace) {
      before = Counters::Read(bed);
      if (workload.setups() == 0) {  // the op built its own deployment
        phase->setup.AddDelta(before, Counters());
        ++phase->setups_seen;
      }
    }
    const uint64_t wire_before = bed.network().stats().total_bytes();
    resume(pause);

    const bool traced = args.trace && i % 2 == 1;
    if (traced) Tracer::Global().Enable();
    const OpResult op = workload.Run(i);
    if (traced) Tracer::Global().Disable();

    pause = Clock::now();
    ++phase->attempted;
    if (!workload.Check(op)) ++phase->failed;
    phase->wire_bytes += bed.network().stats().total_bytes() - wire_before;
    phase->user_bytes += op.user_bytes;
    const size_t kind = static_cast<size_t>(op.kind);
    phase->ops.push_back({op.kind, phase->window_seconds.size(), op.wall_us});
    if (op.kind != OpKind::kLocalQuery) {
      phase->virtual_us[kind].Add(op.virtual_us);
    }
    const bool headline = op.kind == workload.headline();
    if (traced) {
      phase->spans.Harvest(op.wall_us);
      if (headline) phase->headline_traced_us.Add(op.wall_us);
    } else {
      if (headline) {
        phase->headline_untraced_us.Add(op.wall_us);
        phase->headline_by_position.emplace_back(
            per_deployment == 0 ? i : i % per_deployment, op.wall_us);
      }
      for (const auto& [layer, us] : op.calls) phase->call_us[layer] += us;
      ++phase->untraced_ops;
    }
    if (args.trace) {
      phase->counters.AddDelta(Counters::Read(bed), before);
      // Retained memory: growth from the end of the first op to the last
      // op on the first deployment (the first op fills caches; a
      // replaced deployment frees what its ops retained).
      if (i == 0) phase->rss_start_kb = CurrentRssKb();
      if (per_deployment == 0 || i < per_deployment) {
        phase->rss_end_kb = CurrentRssKb();
        phase->rss_ops = i;
      }
    }
    resume(pause);
  }
  phase->seconds = (MicrosSince(begin) - paused_us) / 1e6;
  phase->peak_rss_mb = PeakRssMb();  // before probes and final checks
}

// The quieter half of a run's windows, pooled. Other tenants of a shared
// host slow every op for seconds at a time, by up to ~1.4x; every window
// runs the same mix of ops, so the windows with the lowest headline p50
// are the ones the host left alone.
struct Quiet {
  std::array<Samples, kOpKinds> wall_us;  // per op kind
  uint64_t ops = 0;
  double seconds = 0;
  size_t windows = 0;      // kept
  size_t windows_run = 0;  // whole windows the loop ran
};

Quiet QuietHalf(const Workload& workload, const Phase& phase) {
  const size_t n = phase.window_seconds.size();
  std::vector<Samples> headline(n);
  std::vector<uint64_t> ops(n, 0);
  for (const TimedOp& op : phase.ops) {
    ++ops[op.window];
    if (op.kind == workload.headline()) headline[op.window].Add(op.wall_us);
  }
  // A window cut short by an overrun counts only when none is whole.
  std::vector<size_t> order;
  for (size_t w = 0; w < n; ++w) {
    if (ops[w] == workload.ops_per_window()) order.push_back(w);
  }
  if (order.empty()) {
    for (size_t w = 0; w < n; ++w) order.push_back(w);
  }
  std::vector<double> p50(n, 0.0);
  for (size_t w : order) p50[w] = headline[w].Quantile(0.5);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return p50[a] < p50[b]; });
  Quiet quiet;
  quiet.windows_run = order.size();
  order.resize((order.size() + 1) / 2);
  quiet.windows = order.size();
  std::vector<bool> kept(n, false);
  for (size_t w : order) {
    kept[w] = true;
    quiet.ops += ops[w];
    quiet.seconds += phase.window_seconds[w];
  }
  for (const TimedOp& op : phase.ops) {
    if (kept[op.window]) {
      quiet.wall_us[static_cast<size_t>(op.kind)].Add(op.wall_us);
    }
  }
  return quiet;
}

// Every workload prints every one of these: the headline op's latency,
// the latency of its updates (full or incremental), throughput, wire
// volume, memory and set-up time. Latency and throughput come from the
// quieter half of the windows.
std::vector<Metric> EndToEnd(Workload& workload, const Phase& phase,
                             const Quiet& quiet) {
  const Samples& op = quiet.wall_us[static_cast<size_t>(workload.headline())];
  const Samples& full =
      quiet.wall_us[static_cast<size_t>(OpKind::kFullUpdate)];
  const Samples& updates =
      full.empty() ? quiet.wall_us[static_cast<size_t>(OpKind::kIncrUpdate)]
                   : full;
  const char* update_name = LatencyName(full.empty() ? OpKind::kIncrUpdate
                                                     : OpKind::kFullUpdate);
  const double tail = workload.tail_percentile();
  char tail_note[80];
  std::snprintf(tail_note, sizeof tail_note, "p%g of %s, %zu beyond", tail,
                LatencyName(workload.headline()), op.Beyond(tail));
  return {
      {"setup_s", workload.setup_s().Quantile(0.5), "s",
       workload.setup_s().size(), "median set-up"},
      {"op_ms_p50", op.Quantile(0.5) / 1000, "ms", op.size(),
       std::string("p50 of ") + LatencyName(workload.headline())},
      {"op_ms_tail", op.Quantile(tail / 100) / 1000, "ms", op.size(),
       tail_note},
      {"update_ms_p50", updates.Quantile(0.5) / 1000, "ms", updates.size(),
       std::string("p50 of ") + update_name},
      {"ops_per_s", Ratio(static_cast<double>(quiet.ops), quiet.seconds),
       "1/s", quiet.ops, "ops per second of loop time"},
      {"wire_bytes_per_op",
       Ratio(static_cast<double>(phase.wire_bytes),
             static_cast<double>(phase.attempted)),
       "B", 0, "TransportStats bytes / ops, whole loop"},
      {"peak_rss_mb", phase.peak_rss_mb, "MB", 0,
       "peak resident memory up to the end of the loop"},
  };
}

// The highest of kTailPercentiles with at least ten of `s` beyond it.
double TailPercentile(const Samples& s) {
  double tail = 50;
  for (double p : kTailPercentiles) {
    if (static_cast<double>(s.size()) * (100 - p) / 100 >= 10) tail = p;
  }
  return tail;
}

// The per-kind names: one latency pair per op kind the loop ran, from the
// quieter half of the windows. The headline kind keeps the workload's
// fixed tail; the others get theirs from this run's sample count.
std::vector<Metric> OpTable(Workload& workload, const Phase& phase,
                            const Quiet& quiet) {
  std::vector<Metric> out;
  for (int k = 0; k < kOpKinds; ++k) {
    const Samples& s = quiet.wall_us[static_cast<size_t>(k)];
    if (s.empty()) continue;
    const OpKind kind = static_cast<OpKind>(k);
    const std::string name = LatencyName(kind);
    const bool micros = kind == OpKind::kLocalQuery;
    const double scale = micros ? 1.0 : 1000.0;
    const std::string unit = micros ? "us" : "ms";
    const double tail = kind == workload.headline()
                            ? workload.tail_percentile()
                            : TailPercentile(s);
    char note[48];
    std::snprintf(note, sizeof note, "p%g, %zu beyond", tail, s.Beyond(tail));
    out.push_back({name + "_p50", s.Quantile(0.5) / scale, unit, s.size(),
                   "p50"});
    out.push_back({name + "_tail", s.Quantile(tail / 100) / scale, unit,
                   s.size(), note});
  }
  const Samples& virt =
      phase.virtual_us[static_cast<size_t>(workload.headline())];
  out.push_back({"virtual_ms_p50", virt.Quantile(0.5) / 1000, "ms",
                 virt.size(), "deterministic"});
  out.push_back({"error_rate",
                 Ratio(static_cast<double>(phase.failed),
                       static_cast<double>(phase.attempted)),
                 "ratio", phase.attempted, "failed ops / attempted"});
  return out;
}

std::vector<Metric> PerLayer(Workload& workload, const Phase& phase,
                             const std::vector<Probe>& probes) {
  std::vector<Metric> out;
  const double ops = static_cast<double>(phase.attempted);
  const double untraced = static_cast<double>(phase.untraced_ops);
  out.push_back({"workload.create_ms",
                 workload.create_s().Quantile(0.5) * 1000, "ms",
                 workload.create_s().size(), "span: Testbed::Create"});
  out.push_back({"core.setup_sync_ms", workload.sync_s().Quantile(0.5) * 1000,
                 "ms", workload.sync_s().size(), "span: set-up full update"});
  const Samples& virt =
      phase.virtual_us[static_cast<size_t>(workload.headline())];
  out.push_back({"virtual_ms_p50", virt.Quantile(0.5) / 1000, "ms",
                 virt.size(), "simulated time of the headline op"});
  for (const char* call :
       {"wrapper.insert_local_us", "core.start_us", "net.run_us",
        "core.query.answers_us", "core.query.local_us"}) {
    auto it = phase.call_us.find(call);
    out.push_back({call,
                   it == phase.call_us.end() ? 0.0
                                             : Ratio(it->second, untraced),
                   "us", phase.untraced_ops, "span per untraced op"});
  }
  for (const auto& [name, us] : phase.spans.PerOp()) {
    out.push_back({name, us, "us", phase.spans.ops(), "trace per traced op"});
  }
  const double traced_p50 = phase.headline_traced_us.Quantile(0.5);
  const double untraced_p50 = phase.headline_untraced_us.Quantile(0.5);
  out.push_back({"obs.trace_overhead_pct",
                 untraced_p50 == 0 ? 0.0
                                   : (traced_p50 / untraced_p50 - 1) * 100,
                 "%", phase.headline_traced_us.size(),
                 "traced vs untraced headline p50"});

  const Counters& c = phase.counters;
  for (size_t i = 0; i < kFlowTypes.size(); ++i) {
    const std::string type = Lower(MessageTypeName(kFlowTypes[i]));
    out.push_back({"net.msgs_per_op." + type,
                   Ratio(static_cast<double>(c.msgs[i]), ops), "count", 0,
                   "TransportStats"});
    out.push_back({"net.bytes_per_op." + type,
                   Ratio(static_cast<double>(c.bytes[i]), ops), "B", 0,
                   "TransportStats"});
  }
  const double setups = static_cast<double>(phase.setups_seen);
  for (CostClass cls : {CostClass::kData, CostClass::kControl,
                        CostClass::kAck, CostClass::kConfig,
                        CostClass::kDiscovery}) {
    const size_t k = static_cast<size_t>(cls);
    const std::string name = CostClassName(cls);
    out.push_back({"net.cost_bytes.setup." + name,
                   Ratio(static_cast<double>(phase.setup.cost_bytes[k]),
                         setups),
                   "B", 0, "cost ledger, per set-up"});
    out.push_back({"net.service_us.setup." + name,
                   Ratio(static_cast<double>(phase.setup.service_us[k]),
                         setups),
                   "us", 0, "queue profiler, per set-up"});
    if (cls == CostClass::kConfig || cls == CostClass::kDiscovery) continue;
    out.push_back({"net.cost_bytes." + name,
                   Ratio(static_cast<double>(c.cost_bytes[k]), ops), "B", 0,
                   "cost ledger, per op"});
    out.push_back({"net.service_us." + name,
                   Ratio(static_cast<double>(c.service_us[k]), ops), "us", 0,
                   "queue profiler, per op"});
  }
  out.push_back({"core.update.eval_rows_per_op",
                 Ratio(static_cast<double>(c.eval_rows), ops), "count", 0,
                 "update.eval_rows"});
  out.push_back({"core.update.ship_useful_ratio",
                 Ratio(static_cast<double>(c.tuples_shipped),
                       static_cast<double>(c.tuples_shipped +
                                           c.dups_suppressed +
                                           c.memory_suppressed)),
                 "ratio", 0, "shipped / (shipped + suppressed)"});
  out.push_back({"storage.wal_bytes_per_user_byte",
                 Ratio(static_cast<double>(c.wal_bytes),
                       static_cast<double>(phase.user_bytes)),
                 "ratio", 0, "storage.wal.bytes / inserted row bytes"});

  // Drift of the headline latency over a deployment's ops (over the run
  // when one deployment serves it), on untraced ops.
  uint64_t span = workload.ops_per_deployment();
  for (const auto& [position, us] : phase.headline_by_position) {
    if (workload.ops_per_deployment() == 0) span = std::max(span, position + 1);
  }
  Samples first;
  Samples last;
  for (const auto& [position, us] : phase.headline_by_position) {
    if (position < span / 10) first.Add(us);
    if (position >= span - span / 10) last.Add(us);
  }
  out.push_back({"core.drift_ratio",
                 Ratio(last.Quantile(0.5), first.Quantile(0.5)), "ratio",
                 first.size() + last.size(),
                 "p50 last tenth / p50 first tenth of a deployment's ops"});
  out.push_back({"core.retained_kb_per_op",
                 Ratio(phase.rss_end_kb - phase.rss_start_kb,
                       static_cast<double>(phase.rss_ops)),
                 "KB", phase.rss_ops, "RSS growth per op, one deployment"});
  for (const Probe& probe : probes) {
    out.push_back({probe.name, probe.samples.Quantile(0.5), probe.unit,
                   probe.samples.size(), "probe, median"});
  }
  return out;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  std::printf("  %-44s %14s  %-5s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.6g  %-5s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  JsonValue values = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", JsonValue::Number(m.value));
    metric.Set("unit", JsonValue::Str(m.unit));
    values.Set(m.name, std::move(metric));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Uint(attempted));
  result.Set("failed", JsonValue::Uint(failed));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: codb_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  WorkloadOptions options;
  options.seed = args.seed;
  options.profiling = args.trace;
  options.scratch_dir = args.scratch;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, options);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Phase phase;
  RunPhase(*workload, args, &phase);
  std::vector<Probe> probes;
  if (args.trace) probes = RunProbes(*workload);
  std::string checks;
  const int final_failed = workload->FinalChecks(&checks);

  std::printf("codb perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("%llu ops, %llu failed, %.3f s measured\n",
              static_cast<unsigned long long>(phase.attempted),
              static_cast<unsigned long long>(phase.failed), phase.seconds);
  std::printf("output checks:\n%s", checks.c_str());
  const Quiet quiet = QuietHalf(*workload, phase);
  std::printf("windows of %llu ops: %zu whole, the quieter %zu kept\n",
              static_cast<unsigned long long>(workload->ops_per_window()),
              quiet.windows_run, quiet.windows);
  const std::vector<Metric> end_to_end = EndToEnd(*workload, phase, quiet);
  PrintTable("end-to-end", end_to_end);
  PrintTable("by op kind", OpTable(*workload, phase, quiet));
  std::vector<Metric> per_layer;
  if (args.trace) {
    per_layer = PerLayer(*workload, phase, probes);
    PrintTable("per layer (traced run)", per_layer);
    if (!args.trace_out.empty()) {
      MustOk(phase.spans.WriteJsonl(args.trace_out), "trace output");
      std::printf("spans: %zu seen over %llu traced ops; sample in %s\n",
                  phase.spans.spans_seen(),
                  static_cast<unsigned long long>(phase.spans.ops()),
                  args.trace_out.c_str());
    }
  }
  const uint64_t failed = std::min<uint64_t>(
      phase.attempted, phase.failed + static_cast<uint64_t>(final_failed));
  std::fflush(stdout);
  PrintResult(failed == 0 && phase.attempted > 0, phase.attempted, failed,
              args.trace ? per_layer : end_to_end);
  return 0;
}

}  // namespace
}  // namespace codb::perfbench

int main(int argc, char** argv) { return codb::perfbench::Main(argc, argv); }
