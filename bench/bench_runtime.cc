// Experiment E10 (extension) — simulator vs. real-thread runtime.
//
// Runs the same global update over the deterministic discrete-event
// simulator and over the ThreadedNetwork (one delivery thread per peer,
// wall-clock latencies) and compares outcomes and wall time. The data
// outcome must be identical (ring derivations are order-independent);
// the threaded runtime pays real latency waits, the simulator skips them.
//
// The binary gates itself: it exits non-zero unless, at every ring size,
// both runtimes complete, the stores at n0 match and the UPDATE_DATA
// message counts are equal.

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "util/stopwatch.h"

namespace codb {
namespace bench {
namespace {

struct Outcome {
  double wall_ms = 0;
  bool completed = false;
  size_t tuples_at_n0 = 0;
  uint64_t data_messages = 0;
};

Outcome RunOnce(const GeneratedNetwork& generated, bool threaded) {
  Testbed::Options options;
  options.threaded = threaded;
  options.node.link_profile.latency_us = 200;
  options.node.link_profile.bandwidth_bpus = 0;
  std::unique_ptr<Testbed> bed =
      std::move(Testbed::Create(generated, options)).value();

  Stopwatch wall;
  FlowId update = bed->node("n0")->StartGlobalUpdate().value();
  bed->network().Run();
  Outcome outcome;
  outcome.wall_ms = wall.ElapsedSeconds() * 1000.0;
  outcome.completed = bed->AllComplete(update);
  outcome.tuples_at_n0 = bed->node("n0")->database().Find("d")->size();
  outcome.data_messages =
      bed->network().stats().MessagesOfType(MessageType::kUpdateData);
  return outcome;
}

void Run() {
  Print(
      "E10: simulator vs threaded runtime (rings, 10 tuples/node, "
      "200us links)\n");
  Print("%5s | %12s %12s | %10s %10s | %8s\n", "nodes", "sim wall",
              "thr wall", "sim msgs", "thr msgs", "match");

  bool all_match = true;
  for (int n : {4, 8, 12}) {
    WorkloadOptions options;
    options.nodes = n;
    options.tuples_per_node = 10;
    GeneratedNetwork generated = MakeRing(options);

    Outcome sim = RunOnce(generated, /*threaded=*/false);
    Outcome thr = RunOnce(generated, /*threaded=*/true);
    bool match = sim.completed && thr.completed &&
                 sim.tuples_at_n0 == thr.tuples_at_n0 &&
                 sim.data_messages == thr.data_messages;
    all_match = all_match && match;
    if (JsonMode()) {
      JsonValue obj = JsonValue::Object();
      obj.Set("scenario", JsonValue::Str("ring/" + std::to_string(n)));
      obj.Set("sim_wall_ms", JsonValue::Number(sim.wall_ms));
      obj.Set("thr_wall_ms", JsonValue::Number(thr.wall_ms));
      obj.Set("sim_data_messages", JsonValue::Uint(sim.data_messages));
      obj.Set("thr_data_messages", JsonValue::Uint(thr.data_messages));
      obj.Set("match", JsonValue::Bool(match));
      RecordJson(std::move(obj));
    }
    Print("%5d | %10.2fms %10.2fms | %10llu %10llu | %8s\n", n,
                sim.wall_ms, thr.wall_ms,
                static_cast<unsigned long long>(sim.data_messages),
                static_cast<unsigned long long>(thr.data_messages),
                match ? "yes" : "NO");
  }
  Print(
      "\nsame messages, same final stores; the threaded runtime pays the\n"
      "real 200us link latencies the simulator only accounts virtually.\n");
  if (!all_match) {
    std::fprintf(stderr,
                 "E10 GATE FAILED: at every ring size both runtimes must "
                 "complete with the same store at n0 and the same "
                 "UPDATE_DATA count\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace codb

int main(int argc, char** argv) {
  return codb::bench::BenchMain(argc, argv, codb::bench::Run);
}
