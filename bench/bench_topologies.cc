// Experiment E1 — "measure the performance of various networks arranged
// in different topologies" (paper, section 4) — and experiment E14 —
// membership at scale (DESIGN.md §11).
//
// E1: for each topology and network size, runs one global update and
// reports the statistics the demo's super-peer aggregates: total
// execution time (virtual network time + real compute), data/control
// message counts, bytes moved, and the longest update-propagation path.
//
// Expected shape: cost grows with network diameter — star flattest, chain
// and ring steepest; the ring pays extra for cycle closure.
//
// E14: stands up trees of 100–1000 peers under federated super-peers
// (one per ~250 nodes) with the membership layer on, silently kills three
// peers mid-update, and reports how fast the survivors detect the deaths.
// The bench FAILS (exit 1) if any live peer is evicted, if detection
// takes longer than the protocol bound, if the update does not
// terminate on the surviving topology, or if the config-distribution
// volume (slices + deltas + fetches + acks) fails the sub-quadratic
// scaling fit or the absolute cap at n=1000 (DESIGN.md §13). With
// profiling on, it also FAILS (E15) unless, per cost class, the peers'
// own ledgers sent exactly what the network's ledger counted.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench_util.h"

namespace codb {
namespace bench {
namespace {

// E14 beacon period. Detection worst case (membership.h): suspicion
// crosses at 1.5 periods of silence and is seen at the tracker's next
// tick (+1), eviction 1 period later, seen at the next tick (+1) —
// ~4.5 periods from the kill. The probe polls in half-period steps, so
// anything past 6 measured periods means the detector is broken.
constexpr int64_t kPeriodUs = 200'000;
constexpr double kDetectBoundPeriods = 6.0;

void RunMembershipScale() {
  Print("E14: membership at scale (binary tree, federated supers, 3 silent"
        " kills mid-update)\n");
  Print("%6s %6s | %9s %7s %7s %7s %8s %8s %10s %9s\n", "nodes", "supers",
        "completed", "evict", "expect", "false", "det-avg", "det-max",
        "cfg-bytes", "wall(ms)");

  // Measured config-class bytes (slices, deltas, fetches, acks) per
  // deployment size, for the scaling gate at n=1000: the delta/projected
  // distribution (DESIGN.md §13) ships each peer only its slice, so total
  // config volume must fit a SUB-quadratic power law — the full-file
  // broadcast it replaced was n messages of size Θ(n), i.e. exponent 2.
  std::map<int, uint64_t> cfg_by_n;

  // Gate thresholds: fitted exponent cfg(n) ~ n^e between n=100 and
  // n=1000 must stay below 1.5, and the absolute volume at n=1000 below
  // 21.6 MB — a ≥5x drop from the ~108 MB the full-file broadcast cost.
  constexpr double kMaxConfigScalingExponent = 1.5;
  constexpr uint64_t kMaxConfigBytesAt1000 = 21'600'000;

  const MessageType kConfigTypes[] = {
      MessageType::kConfigSlice, MessageType::kConfigDelta,
      MessageType::kConfigFetch, MessageType::kConfigAck,
  };

  for (int n : {100, 250, 1000}) {
    WorkloadOptions options;
    options.nodes = n;
    options.tuples_per_node = 2;
    options.seed = 42;
    GeneratedNetwork generated = MakeTree(options);

    Testbed::Options bed_options;
    // Discovery's announcement flood is O(n·E) — the first wall a
    // thousand-peer deployment hits; membership does not need it.
    bed_options.node.quiet_discovery = true;
    // Retransmission backoff past the detection window: completion must
    // come from eviction cancelling the dead peers' deficits.
    bed_options.node.reliability.enabled = true;
    bed_options.node.reliability.retransmit_base_us = 2'000'000;
    bed_options.membership = true;
    bed_options.membership_options.period_us = kPeriodUs;
    bed_options.super_peers = std::max(1, n / 250);
    // The profile pass (E15): per-peer cost ledgers + event-loop profiler
    // on for the whole deployment, including the settle-phase config
    // broadcast the cost model exists to expose.
    bed_options.profiling = true;

    Stopwatch wall;
    Result<std::unique_ptr<Testbed>> testbed =
        Testbed::Create(generated, bed_options);
    if (!testbed.ok()) {
      std::fprintf(stderr, "testbed: %s\n",
                   testbed.status().ToString().c_str());
      std::exit(1);
    }
    Testbed& bed = *testbed.value();
    NetworkBase& net = bed.network();

    // Let tracking establish everywhere (grace is 2 periods).
    net.RunFor(5 * kPeriodUs);

    // Three victims spread across the tree: an internal node, the last
    // leaf, and a node in the upper half — never the initiator. The kills
    // land 0.5–3ms into the update flood, while requests and data are
    // still in flight.
    ChurnProbe probe(bed);
    probe.ScheduleKill(NodeName(n / 2), 500);
    probe.ScheduleKill(NodeName(n - 1), 1'500);
    probe.ScheduleKill(NodeName(n / 4 + 1), 3'000);

    Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
    if (!update.ok()) {
      std::fprintf(stderr, "update: %s\n",
                   update.status().ToString().c_str());
      std::exit(1);
    }
    probe.AwaitDetection(kPeriodUs / 2, 15 * kPeriodUs);
    // Evictions have cancelled every deficit toward the corpses by now;
    // drain the remaining completion wave.
    net.Run();
    bool completed = bed.AllComplete(update.value());

    // Federation still yields the network-wide view over the survivors.
    // The retained-state gauges (query.states, query.layer_rows) ride in
    // every node's stats report; their network-wide sums go into the JSON
    // for codb_profile.
    size_t nodes_reporting = 0;
    JsonValue retained = JsonValue::Object();
    if (bed.CollectStats().ok()) {
      std::vector<AggregatedUpdateStats> federated =
          bed.super_peer(0).FederatedAggregate();
      if (!federated.empty()) nodes_reporting = federated[0].nodes_reporting;
      const MetricsSnapshot metrics = bed.super_peer(0).FederatedMetrics();
      for (const char* gauge : {"query.states", "query.layer_rows"}) {
        auto it = metrics.entries.find(gauge);
        retained.Set(gauge, JsonValue::Int(
                                it != metrics.entries.end() ? it->second.value
                                                            : 0));
      }
    }

    double detect_mean = probe.MeanDetectPeriods(kPeriodUs);
    double detect_max = probe.MaxDetectPeriods(kPeriodUs);
    uint64_t config_bytes = 0;
    for (MessageType type : kConfigTypes) {
      config_bytes += net.stats().BytesOfType(type);
    }
    double wall_ms = wall.ElapsedSeconds() * 1000.0;
    cfg_by_n[n] = config_bytes;

    const CostLedger& cost = bed.cost();

    Print("%6d %6d | %9s %7llu %7llu %7llu %8.2f %8.2f %10llu %9.2f\n", n,
          bed_options.super_peers, completed ? "yes" : "NO",
          static_cast<unsigned long long>(probe.Evictions()),
          static_cast<unsigned long long>(probe.ExpectedEvictions()),
          static_cast<unsigned long long>(probe.FalseEvictions()),
          detect_mean, detect_max,
          static_cast<unsigned long long>(config_bytes), wall_ms);
    Print("       bytes by class:");
    for (size_t c = 0; c < kCostClassCount; ++c) {
      CostClass cls = static_cast<CostClass>(c);
      uint64_t bytes = cost.SentBytes(cls);
      if (bytes == 0) continue;
      Print(" %s=%llu", CostClassName(cls),
            static_cast<unsigned long long>(bytes));
    }
    Print("\n");

    // The network core charges each send to the network's ledger and to
    // the sender's own ledger in one call. Per class, the sent sides of
    // every peer's ledger — live nodes, killed nodes (what they sent
    // before the kill counts too) and super-peers — must add up to the
    // network's exactly; any difference means a peer's recording drifted.
    for (size_t c = 0; c < kCostClassCount; ++c) {
      const CostClass cls = static_cast<CostClass>(c);
      CostLedger::Totals peers;
      auto add = [&peers, cls](const CostLedger& ledger) {
        peers.messages += ledger.Sent(cls).messages;
        peers.bytes += ledger.Sent(cls).bytes;
      };
      for (const auto& node : bed.nodes()) add(node->statistics().cost());
      for (const auto& node : bed.killed_nodes()) {
        add(node->statistics().cost());
      }
      for (size_t s = 0; s < bed.super_peer_count(); ++s) {
        add(bed.super_peer(s).cost());
      }
      const CostLedger::Totals network = cost.Sent(cls);
      if (peers.messages != network.messages || peers.bytes != network.bytes) {
        std::fprintf(stderr,
                     "E15 FAILED at n=%d: %s class: the peers' ledgers sent "
                     "%llu msgs / %llu B, the network's ledger %llu msgs / "
                     "%llu B\n",
                     n, CostClassName(cls),
                     static_cast<unsigned long long>(peers.messages),
                     static_cast<unsigned long long>(peers.bytes),
                     static_cast<unsigned long long>(network.messages),
                     static_cast<unsigned long long>(network.bytes));
        std::exit(1);
      }
    }

    // At n=1000, fit cfg(n) ~ n^e from the n=100 endpoint: the projected
    // slice protocol must scale sub-quadratically (per-peer slices are
    // O(degree), so the total is near-linear on bounded-degree trees) and
    // stay under the ≥5x-drop absolute cap.
    double config_scaling_exponent = 0;
    if (n == 1000) {
      config_scaling_exponent =
          std::log(static_cast<double>(config_bytes) /
                   static_cast<double>(cfg_by_n[100])) /
          std::log(1000.0 / 100.0);
      Print("       config scaling check: cfg(100)=%llu cfg(1000)=%llu "
            "=> exponent %.2f (gate <= %.2f, cap %llu bytes)\n",
            static_cast<unsigned long long>(cfg_by_n[100]),
            static_cast<unsigned long long>(config_bytes),
            config_scaling_exponent, kMaxConfigScalingExponent,
            static_cast<unsigned long long>(kMaxConfigBytesAt1000));
      if (config_scaling_exponent > kMaxConfigScalingExponent) {
        std::fprintf(stderr,
                     "E14 FAILED at n=1000: config bytes scale as n^%.2f "
                     "(gate n^%.2f) — distribution regressed toward the "
                     "O(n^2) full-file broadcast\n",
                     config_scaling_exponent, kMaxConfigScalingExponent);
        std::exit(1);
      }
      if (config_bytes > kMaxConfigBytesAt1000) {
        std::fprintf(stderr,
                     "E14 FAILED at n=1000: config bytes %llu exceed the "
                     "%llu cap (>= 5x drop from the full-file broadcast)\n",
                     static_cast<unsigned long long>(config_bytes),
                     static_cast<unsigned long long>(kMaxConfigBytesAt1000));
        std::exit(1);
      }
    }

    if (JsonMode()) {
      JsonValue obj = JsonValue::Object();
      obj.Set("scenario",
              JsonValue::Str("membership/tree/" + std::to_string(n)));
      obj.Set("nodes", JsonValue::Int(n));
      obj.Set("super_peers", JsonValue::Int(bed_options.super_peers));
      obj.Set("kills", JsonValue::Int(3));
      obj.Set("completed", JsonValue::Bool(completed));
      obj.Set("all_detected", JsonValue::Bool(probe.AllDetected()));
      obj.Set("evictions", JsonValue::Uint(probe.Evictions()));
      obj.Set("expected_evictions",
              JsonValue::Uint(probe.ExpectedEvictions()));
      obj.Set("false_evictions", JsonValue::Uint(probe.FalseEvictions()));
      obj.Set("false_suspicions", JsonValue::Uint(probe.FalseSuspicions()));
      obj.Set("detect_mean_periods", JsonValue::Number(detect_mean));
      obj.Set("detect_max_periods", JsonValue::Number(detect_max));
      obj.Set("nodes_reporting", JsonValue::Uint(nodes_reporting));
      obj.Set("config_broadcast_bytes", JsonValue::Uint(config_bytes));
      // Flat per-class send bytes (compare_bench.py diffs these), plus
      // the full ledger and event-loop profile for codb_profile.
      for (size_t c = 0; c < kCostClassCount; ++c) {
        CostClass cls = static_cast<CostClass>(c);
        obj.Set(std::string("cost_") + CostClassName(cls) + "_bytes",
                JsonValue::Uint(cost.SentBytes(cls)));
      }
      if (n == 1000) {
        obj.Set("config_scaling_exponent",
                JsonValue::Number(config_scaling_exponent));
      }
      obj.Set("cost", cost.CostSnapshot().ToJson());
      obj.Set("profile", net.profiler().Snapshot().ToJson());
      obj.Set("retained", std::move(retained));
      obj.Set("wall_ms", JsonValue::Number(wall_ms));
      RecordJson(std::move(obj));
    }

    // The acceptance gates, enforced by the bench itself: the update
    // terminates, every dead peer is detected within the protocol bound,
    // and no live peer is ever evicted.
    if (!completed || !probe.AllDetected() ||
        probe.FalseEvictions() != 0 ||
        detect_max > kDetectBoundPeriods) {
      std::fprintf(stderr,
                   "E14 FAILED at n=%d: completed=%d all_detected=%d "
                   "false_evictions=%llu detect_max=%.2f periods\n",
                   n, completed ? 1 : 0, probe.AllDetected() ? 1 : 0,
                   static_cast<unsigned long long>(probe.FalseEvictions()),
                   detect_max);
      std::exit(1);
    }
  }
  Print("\n");
}

void Run() {
  struct TopologyCase {
    const char* name;
    std::function<GeneratedNetwork(const WorkloadOptions&)> make;
  };
  const std::vector<TopologyCase> topologies = {
      {"chain", MakeChain}, {"ring", MakeRing},   {"star", MakeStar},
      {"tree", MakeTree},   {"grid", MakeGrid},   {"random", MakeRandom},
  };
  const int sizes[] = {4, 8, 16, 32};

  Print(
      "E1: global update across topologies (tuples/node=20, copy rules)\n");
  Print(
      "%-8s %5s | %9s %9s %7s %7s %10s %8s %5s\n", "topology", "nodes",
      "virt(us)", "wall(ms)", "dataM", "ctrlM", "bytes", "tuples", "path");

  for (const TopologyCase& topology : topologies) {
    for (int n : sizes) {
      WorkloadOptions options;
      options.nodes = n;
      options.tuples_per_node = 20;
      options.seed = 42;
      if (topology.name == std::string("grid")) {
        options.grid_rows = n <= 4 ? 2 : 4;
        options.grid_cols = n / options.grid_rows;
      }
      options.edge_probability = 3.0 / n;  // keep random graphs sparse
      UpdateMetrics metrics = RunUpdate(topology.make(options), "n0");
      RecordScenario(std::string(topology.name) + "/" + std::to_string(n),
                     metrics);
      Print(
          "%-8s %5d | %9lld %9.2f %7llu %7llu %10llu %8llu %5u%s\n",
          topology.name, n, static_cast<long long>(metrics.virtual_us),
          metrics.wall_ms,
          static_cast<unsigned long long>(metrics.data_messages),
          static_cast<unsigned long long>(metrics.control_messages),
          static_cast<unsigned long long>(metrics.data_bytes),
          static_cast<unsigned long long>(metrics.tuples_moved),
          metrics.longest_path, metrics.completed ? "" : "  INCOMPLETE");
    }
    Print("\n");
  }

  RunMembershipScale();
}

}  // namespace
}  // namespace bench
}  // namespace codb

int main(int argc, char** argv) {
  return codb::bench::BenchMain(argc, argv, codb::bench::Run);
}
