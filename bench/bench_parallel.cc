// Experiment E13 — concurrent flows inside a node.
//
// The one use of intra-node threads coDB keeps: with
// Node::ExecOptions::num_threads > 1 on the threaded runtime, flow-scoped
// messages run on per-flow strands, so query flows and an update flow
// overlap inside each node. The workload races them: a global update
// from n0 and, at the same instant, one distributed query
// `q(K, V) :- d(K, V)` from every other node, over 200 us links. Two
// shapes, 1000 rows per node: a 12-node joincopy chain (long diffusing
// paths, heavy per-node joins) and a 12-node joincopy star (one hub every
// flow crosses). Each (shape, thread count) pair is run kRuns times on a
// fresh deployment, interleaving thread counts so host noise spreads
// evenly; the table reports the median wall time of the race (start to
// network quiescence) with the min and max.
//
// The bench exits 1 unless the update and every query complete in every
// run. It claims no speedup: it records what strands buy on this host.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "query/parser.h"

namespace codb {
namespace bench {
namespace {

constexpr int kRuns = 5;
constexpr int kThreadCounts[] = {1, 2, 4};

// Starts the update and every query, runs the network to quiescence and
// returns the wall time in ms; exits 1 if any flow did not complete.
double RaceOnce(const GeneratedNetwork& generated, int threads,
                const ConjunctiveQuery& query) {
  Testbed::Options options;
  options.threaded = true;
  options.node.exec.num_threads = threads;
  options.node.link_profile.latency_us = 200;
  options.node.link_profile.bandwidth_bpus = 0;
  Result<std::unique_ptr<Testbed>> created =
      Testbed::Create(generated, options);
  if (!created.ok()) {
    std::fprintf(stderr, "FAILED: testbed: %s\n",
                 created.status().ToString().c_str());
    std::exit(1);
  }
  Testbed& bed = *created.value();

  Stopwatch watch;
  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  std::vector<std::pair<Node*, FlowId>> queries;
  bool started = update.ok();
  for (const auto& node : bed.nodes()) {
    if (node->name() == "n0") continue;
    Result<FlowId> flow = node->StartQuery(query);
    started = started && flow.ok();
    if (flow.ok()) queries.emplace_back(node.get(), flow.value());
  }
  bed.network().Run();
  double wall_ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;

  bool complete = started && bed.AllComplete(update.value());
  for (const auto& [node, flow] : queries) {
    complete = complete && node->QueryDone(flow);
  }
  if (!complete) {
    std::fprintf(stderr, "FAILED: a flow did not complete at threads=%d\n",
                 threads);
    std::exit(1);
  }
  return wall_ms;
}

void Run() {
  Print("E13: concurrent flows (threaded runtime, 200us links; update from "
        "n0 races a query from every other node)\n");
  Print("  %-28s %8s %10s %10s %10s\n", "scenario", "threads", "median_ms",
        "min_ms", "max_ms");

  Result<ConjunctiveQuery> query = ParseQuery("q(K, V) :- d(K, V).");
  if (!query.ok()) {
    std::fprintf(stderr, "FAILED: query: %s\n",
                 query.status().ToString().c_str());
    std::exit(1);
  }

  WorkloadOptions options;
  options.nodes = 12;
  options.tuples_per_node = 1000;
  options.style = RuleStyle::kJoinCopy;
  struct Shape {
    const char* name;
    GeneratedNetwork generated;
  };
  const Shape shapes[] = {{"joincopy/chain12x1000", MakeChain(options)},
                          {"joincopy/star12x1000", MakeStar(options)}};

  for (const Shape& shape : shapes) {
    std::map<int, std::vector<double>> walls;
    for (int run = 0; run < kRuns; ++run) {
      for (int threads : kThreadCounts) {
        walls[threads].push_back(
            RaceOnce(shape.generated, threads, query.value()));
      }
    }
    for (int threads : kThreadCounts) {
      std::vector<double>& w = walls[threads];
      std::sort(w.begin(), w.end());
      const double median = w[w.size() / 2];
      std::string scenario =
          std::string(shape.name) + "/threads=" + std::to_string(threads);
      Print("  %-28s %8d %10.1f %10.1f %10.1f\n", shape.name, threads, median,
            w.front(), w.back());
      JsonValue obj = JsonValue::Object();
      obj.Set("scenario", JsonValue::Str(scenario));
      obj.Set("threads", JsonValue::Int(threads));
      obj.Set("runs", JsonValue::Int(kRuns));
      obj.Set("completed", JsonValue::Bool(true));
      obj.Set("wall_ms", JsonValue::Number(median));
      obj.Set("min_wall_ms", JsonValue::Number(w.front()));
      obj.Set("max_wall_ms", JsonValue::Number(w.back()));
      RecordJson(std::move(obj));
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace codb

int main(int argc, char** argv) {
  return codb::bench::BenchMain(argc, argv, codb::bench::Run);
}
