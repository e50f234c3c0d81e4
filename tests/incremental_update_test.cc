// Differential battery for the incremental (semi-naive) global update:
// every scenario is executed twice from the same generated network — once
// through Node::InsertLocal + StartIncrementalUpdate, once through the
// drop-and-rederive StartGlobalRefresh, which keeps the full fixpoint
// semantics and therefore doubles as the oracle. The tentpole claim: after
// every delta batch the two deployments hold byte-identical stores (for
// null-free rule styles), with exactly-once completion callbacks, across
// four topologies (including the cyclic ring) and eight seeds.
//
// On failure the SCOPED_TRACE line prints topology, style and seed;
// replaying is one --gtest_filter away.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/export_memory.h"
#include "core/oracle.h"
#include "net/fault.h"
#include "query/homomorphism.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

enum class Topology { kChain, kStar, kTree, kRing };

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kChain:
      return "Chain";
    case Topology::kStar:
      return "Star";
    case Topology::kTree:
      return "Tree";
    case Topology::kRing:
      return "Ring";
  }
  return "?";
}

GeneratedNetwork Generate(Topology topology, const WorkloadOptions& options) {
  switch (topology) {
    case Topology::kChain:
      return MakeChain(options);
    case Topology::kStar:
      return MakeStar(options);
    case Topology::kTree:
      return MakeTree(options);
    case Topology::kRing:
      return MakeRing(options);
  }
  return MakeChain(options);
}

// The initiator must be a node whose local inserts actually export
// somewhere: the deepest source for the converging topologies, any node
// on the cycle for the ring.
int InitiatorIndex(Topology topology, int nodes) {
  switch (topology) {
    case Topology::kChain:
    case Topology::kTree:
      return nodes - 1;
    case Topology::kStar:
      return 1;
    case Topology::kRing:
      return 0;
  }
  return 0;
}

// Cycle through the null-free rule styles so every topology meets every
// evaluation shape (copy, join, insert→probe fixpoint, filter) across the
// seed range; null-minting styles get their own hom-equivalence tests.
RuleStyle StyleFor(uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return RuleStyle::kCopy;
    case 1:
      return RuleStyle::kJoin;
    case 2:
      return RuleStyle::kJoinCopy;
    default:
      return RuleStyle::kFilter;
  }
}

const char* StyleName(RuleStyle style) {
  switch (style) {
    case RuleStyle::kCopy:
      return "Copy";
    case RuleStyle::kProject:
      return "Project";
    case RuleStyle::kJoin:
      return "Join";
    case RuleStyle::kFilter:
      return "Filter";
    case RuleStyle::kMultiHead:
      return "MultiHead";
    case RuleStyle::kJoinCopy:
      return "JoinCopy";
  }
  return "?";
}

// One batch of local inserts at the initiator: relation -> rows.
using DeltaBatch = std::map<std::string, std::vector<Tuple>>;

// Three deterministic batches keyed inside the initiator's private key
// range (node i owns [i*10000, ...)), clear of the seeded prefix so every
// delta derivation is unique. Batch 1 is intentionally empty — an
// incremental update with nothing to say must still terminate cleanly.
// Values straddle the kFilter threshold so the filtered style passes and
// drops rows on both sides of the comparison.
std::vector<DeltaBatch> MakeBatches(int initiator_index, uint64_t seed) {
  std::vector<DeltaBatch> batches(3);
  const int64_t base = static_cast<int64_t>(initiator_index) * 10000 + 1000;
  for (int b : {0, 2}) {
    DeltaBatch& batch = batches[static_cast<size_t>(b)];
    for (int64_t j = 0; j < 3; ++j) {
      int64_t key = base + 100 * b + j;
      int64_t v =
          (17 * j + 31 * b + static_cast<int64_t>(seed) * 7) % 100;
      batch["d"].push_back(Tuple{Value::Int(key), Value::Int(v)});
      // Two of the three keys get a matching e-row, so join-style rules
      // derive for some delta keys and stay silent for others.
      if (j < 2) {
        batch["e"].push_back(
            Tuple{Value::Int(key), Value::Int((v + 13) % 100)});
      }
    }
  }
  return batches;
}

NetworkInstance Canonical(NetworkInstance instances) {
  for (auto& [node, instance] : instances) {
    for (auto& [relation, rows] : instance) {
      std::sort(rows.begin(), rows.end());
    }
  }
  return instances;
}

// Spawns a testbed and runs the baseline full update every incremental
// sequence starts from (the incremental contract: the network has been
// synchronized at least once).
std::unique_ptr<Testbed> SpawnSynchronized(const GeneratedNetwork& generated,
                                           const std::string& initiator) {
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  EXPECT_TRUE(testbed.ok()) << testbed.status().ToString();
  if (!testbed.ok()) return nullptr;
  Result<FlowId> baseline = testbed.value()->RunGlobalUpdate(initiator);
  EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
  if (baseline.ok()) {
    EXPECT_TRUE(testbed.value()->AllComplete(baseline.value()));
  }
  return std::move(testbed).value();
}

Status InsertBatch(Testbed& bed, const std::string& initiator,
                   const DeltaBatch& batch) {
  Node* node = bed.node(initiator);
  if (node == nullptr) return Status::NotFound("no initiator");
  for (const auto& [relation, rows] : batch) {
    CODB_RETURN_IF_ERROR(node->InsertLocal(relation, rows));
  }
  return Status::Ok();
}

// Runs one incremental update at `initiator` and asserts its completion
// callback fired exactly once by the time the network quiesced.
void RunIncrementalOnce(Testbed& bed, const std::string& initiator) {
  int fired = 0;
  Result<FlowId> flow = bed.node(initiator)->StartIncrementalUpdate(
      [&fired](const FlowId&) { ++fired; });
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();
  bed.network().Run();
  EXPECT_TRUE(bed.AllComplete(flow.value()));
  EXPECT_EQ(fired, 1) << "completion callback not exactly-once";
}

uint64_t CounterSum(Testbed& bed, const std::string& name) {
  uint64_t total = 0;
  for (const auto& node : bed.nodes()) {
    total += node->statistics().metrics().GetCounter(name)->value();
  }
  return total;
}

// ---------------------------------------------------------------------------
// The differential sweep: topologies × seeds, three delta batches each.

using SweepParam = std::tuple<Topology, uint64_t /*seed*/>;

class IncrementalEquivalenceSweep
    : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IncrementalEquivalenceSweep, MatchesRefreshOracleBatchByBatch) {
  auto [topology, seed] = GetParam();

  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 4;
  options.seed = seed;
  options.style = StyleFor(seed);
  GeneratedNetwork generated = Generate(topology, options);
  const int initiator_index = InitiatorIndex(topology, options.nodes);
  const std::string initiator = NodeName(initiator_index);

  SCOPED_TRACE(std::string("replay: topology=") + TopologyName(topology) +
               " style=" + StyleName(options.style) +
               " seed=" + std::to_string(seed) + " initiator=" + initiator);

  // Two deployments off the same network: incremental, and the refresh
  // oracle.
  std::unique_ptr<Testbed> incremental =
      SpawnSynchronized(generated, initiator);
  std::unique_ptr<Testbed> oracle_bed = SpawnSynchronized(generated, initiator);
  ASSERT_NE(incremental, nullptr);
  ASSERT_NE(oracle_bed, nullptr);

  const std::vector<DeltaBatch> batches = MakeBatches(initiator_index, seed);
  NetworkInstance initial = generated.seeds;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ASSERT_TRUE(InsertBatch(*incremental, initiator, batches[b]).ok());
    ASSERT_TRUE(InsertBatch(*oracle_bed, initiator, batches[b]).ok());
    for (const auto& [relation, rows] : batches[b]) {
      Instance& instance = initial[initiator];
      instance[relation].insert(instance[relation].end(), rows.begin(),
                                rows.end());
    }

    RunIncrementalOnce(*incremental, initiator);
    Result<FlowId> refresh = oracle_bed->RunGlobalRefresh(initiator);
    ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
    EXPECT_TRUE(oracle_bed->AllComplete(refresh.value()));

    // The differential claim, after *every* batch: byte-identical stores
    // (the styles in this sweep mint no nulls). Compare per node so a
    // failure names the divergent store.
    NetworkInstance expected = Canonical(oracle_bed->Snapshot());
    NetworkInstance got = Canonical(incremental->Snapshot());
    ASSERT_EQ(expected.size(), got.size());
    for (const auto& [node, instance] : expected) {
      ASSERT_TRUE(got.count(node) > 0) << "missing node " << node;
      EXPECT_EQ(got.at(node), instance)
          << "incremental store diverged from refresh oracle at " << node;
    }
  }

  // Independent ground truth: the final incremental state must also agree
  // with the path-bounded oracle run over seeds ∪ deltas.
  Result<NetworkInstance> oracle = Oracle::PathBounded(generated.config,
                                                       initial);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  NetworkInstance got = Canonical(incremental->Snapshot());
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(got.at(node)))
        << "certain part mismatch vs oracle at " << node;
    EXPECT_TRUE(HomEquivalent(instance, got.at(node)))
        << "hom-equivalence vs oracle failed at " << node;
  }

  // The incremental runs actually took the incremental path, and the
  // non-empty batches shipped their delta rows through the counters.
  EXPECT_EQ(CounterSum(*incremental, "update.incremental"),
            static_cast<uint64_t>(batches.size()));
  EXPECT_GT(CounterSum(*incremental, "update.delta_rows"), 0u);
  EXPECT_EQ(CounterSum(*oracle_bed, "update.incremental"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceSweep,
    ::testing::Combine(::testing::Values(Topology::kChain, Topology::kStar,
                                         Topology::kTree, Topology::kRing),
                       ::testing::Range<uint64_t>(1, 9)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(TopologyName(std::get<0>(info.param))) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Existential styles: refresh re-mints its marked nulls, so byte equality
// is the wrong contract — the stores must agree on the certain part and be
// homomorphically equivalent, per node, after every batch.

TEST(IncrementalExistentialTest, ProjectAndMultiHeadHomEquivalent) {
  for (RuleStyle style : {RuleStyle::kProject, RuleStyle::kMultiHead}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      WorkloadOptions options;
      options.nodes = 5;
      options.tuples_per_node = 3;
      options.seed = seed;
      options.style = style;
      GeneratedNetwork generated = MakeChain(options);
      const int initiator_index = options.nodes - 1;
      const std::string initiator = NodeName(initiator_index);
      SCOPED_TRACE(std::string("replay: style=") + StyleName(style) +
                   " seed=" + std::to_string(seed));

      std::unique_ptr<Testbed> incremental =
          SpawnSynchronized(generated, initiator);
      std::unique_ptr<Testbed> oracle_bed =
          SpawnSynchronized(generated, initiator);
      ASSERT_NE(incremental, nullptr);
      ASSERT_NE(oracle_bed, nullptr);

      for (const DeltaBatch& batch : MakeBatches(initiator_index, seed)) {
        ASSERT_TRUE(InsertBatch(*incremental, initiator, batch).ok());
        ASSERT_TRUE(InsertBatch(*oracle_bed, initiator, batch).ok());
        RunIncrementalOnce(*incremental, initiator);
        Result<FlowId> refresh = oracle_bed->RunGlobalRefresh(initiator);
        ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();

        NetworkInstance expected = Canonical(oracle_bed->Snapshot());
        NetworkInstance got = Canonical(incremental->Snapshot());
        for (const auto& [node, instance] : expected) {
          EXPECT_EQ(CertainPart(instance), CertainPart(got.at(node)))
              << "certain part diverged at " << node;
          EXPECT_TRUE(HomEquivalent(instance, got.at(node)))
              << "hom-equivalence vs refresh failed at " << node;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property-based leg: Erdős–Rényi rule networks (arbitrary direction mix,
// possibly disconnected, possibly cyclic) under random multi-batch delta
// sequences that re-insert existing keys, hit join-dead keys, and leave
// some batches empty. The incremental result must stay hom-equivalent to
// the refresh oracle from the same initiator, whatever the graph.

TEST(IncrementalPropertyTest, RandomNetworksRandomDeltaBatches) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    WorkloadOptions options;
    options.nodes = 5;
    options.tuples_per_node = 3;
    options.seed = seed;
    options.edge_probability = 0.5;
    options.style = static_cast<RuleStyle>(seed % 6);
    GeneratedNetwork generated = MakeRandom(options);
    const int initiator_index = static_cast<int>(seed) % options.nodes;
    const std::string initiator = NodeName(initiator_index);
    SCOPED_TRACE("replay: random seed=" + std::to_string(seed) + " style=" +
                 StyleName(options.style) + " initiator=" + initiator);

    std::unique_ptr<Testbed> incremental =
        SpawnSynchronized(generated, initiator);
    std::unique_ptr<Testbed> oracle_bed =
        SpawnSynchronized(generated, initiator);
    ASSERT_NE(incremental, nullptr);
    ASSERT_NE(oracle_bed, nullptr);

    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const int64_t base = static_cast<int64_t>(initiator_index) * 10000;
    int64_t fresh_key = base + 500;
    for (int b = 0; b < 3; ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      DeltaBatch batch;
      const size_t d_rows = rng() % 4;  // 0 → empty d-delta
      const size_t e_rows = rng() % 3;
      for (size_t j = 0; j < d_rows; ++j) {
        // Mix fresh keys with re-inserts of already-present keys (the
        // wrapper must filter those out of the pending delta).
        int64_t key = (rng() % 2 == 0)
                          ? fresh_key++
                          : base + static_cast<int64_t>(
                                       rng() %
                                       static_cast<uint64_t>(
                                           options.tuples_per_node));
        batch["d"].push_back(Tuple{
            Value::Int(key),
            Value::Int(static_cast<int64_t>(rng() % 100))});
      }
      for (size_t j = 0; j < e_rows; ++j) {
        batch["e"].push_back(Tuple{
            Value::Int(base + 500 + static_cast<int64_t>(rng() % 8)),
            Value::Int(static_cast<int64_t>(rng() % 100))});
      }
      ASSERT_TRUE(InsertBatch(*incremental, initiator, batch).ok());
      ASSERT_TRUE(InsertBatch(*oracle_bed, initiator, batch).ok());

      RunIncrementalOnce(*incremental, initiator);
      Result<FlowId> refresh = oracle_bed->RunGlobalRefresh(initiator);
      ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();

      NetworkInstance expected = Canonical(oracle_bed->Snapshot());
      NetworkInstance got = Canonical(incremental->Snapshot());
      for (const auto& [node, instance] : expected) {
        EXPECT_EQ(CertainPart(instance), CertainPart(got.at(node)))
            << "certain part diverged at " << node;
        EXPECT_TRUE(HomEquivalent(instance, got.at(node)))
            << "hom-equivalence vs refresh failed at " << node;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deltas hitting subsumed rules: with skip_subsumed the contained rule is
// skipped on the incremental path exactly as on the full path, and the
// result still matches the refresh oracle (run under the same option).

TEST(IncrementalSubsumptionTest, DeltaThroughSubsumedRulePair) {
  const char* text =
      "node a\n"
      "  relation d(k:int)\n"
      "node b\n"
      "  relation d(k:int)\n"
      "  relation e(k:int)\n"
      "rule narrow a <- b : d(K) :- d(K), e(K).\n"
      "rule wide a <- b : d(K) :- d(K).\n";
  Result<NetworkConfig> config = NetworkConfig::Parse(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  GeneratedNetwork generated;
  generated.config = std::move(config).value();
  generated.seeds["b"]["d"] = {Tuple{Value::Int(1)}, Tuple{Value::Int(2)},
                               Tuple{Value::Int(3)}};
  generated.seeds["b"]["e"] = {Tuple{Value::Int(2)}};

  for (bool skip : {true, false}) {
    SCOPED_TRACE(std::string("skip_subsumed=") + (skip ? "on" : "off"));
    Testbed::Options options;
    options.node.update.skip_subsumed = skip;
    Result<std::unique_ptr<Testbed>> incremental =
        Testbed::Create(generated, options);
    Result<std::unique_ptr<Testbed>> oracle_bed =
        Testbed::Create(generated, options);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    ASSERT_TRUE(oracle_bed.ok()) << oracle_bed.status().ToString();
    ASSERT_TRUE(incremental.value()->RunGlobalUpdate("b").ok());
    ASSERT_TRUE(oracle_bed.value()->RunGlobalUpdate("b").ok());

    // d(4) joins the new e(4); d(5) rides only the wide rule.
    DeltaBatch batch;
    batch["d"] = {Tuple{Value::Int(4)}, Tuple{Value::Int(5)}};
    batch["e"] = {Tuple{Value::Int(4)}};
    ASSERT_TRUE(InsertBatch(*incremental.value(), "b", batch).ok());
    ASSERT_TRUE(InsertBatch(*oracle_bed.value(), "b", batch).ok());

    RunIncrementalOnce(*incremental.value(), "b");
    ASSERT_TRUE(oracle_bed.value()->RunGlobalRefresh("b").ok());

    EXPECT_EQ(Canonical(incremental.value()->Snapshot()),
              Canonical(oracle_bed.value()->Snapshot()));
    // The wide rule ships every key regardless of the option.
    std::vector<Tuple> at_a =
        Canonical(incremental.value()->Snapshot()).at("a").at("d");
    EXPECT_EQ(at_a.size(), 5u);
  }
}

// ---------------------------------------------------------------------------
// Work proportionality: the incremental run's evaluation work is charged
// by delta rows, the refresh oracle's by full body scans — on a store that
// dwarfs the delta the gap must be at least an order of magnitude (the
// claim E17 measures and gates at bench scale).

TEST(IncrementalWorkTest, DeltaEvalReadsFarFewerRowsThanRefresh) {
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 50;
  options.style = RuleStyle::kCopy;
  GeneratedNetwork generated = MakeChain(options);
  const std::string initiator = NodeName(options.nodes - 1);

  std::unique_ptr<Testbed> incremental =
      SpawnSynchronized(generated, initiator);
  std::unique_ptr<Testbed> oracle_bed = SpawnSynchronized(generated, initiator);
  ASSERT_NE(incremental, nullptr);
  ASSERT_NE(oracle_bed, nullptr);

  DeltaBatch batch;
  batch["d"] = {Tuple{Value::Int(59001), Value::Int(1)},
                Tuple{Value::Int(59002), Value::Int(2)}};
  ASSERT_TRUE(InsertBatch(*incremental, initiator, batch).ok());
  ASSERT_TRUE(InsertBatch(*oracle_bed, initiator, batch).ok());

  const uint64_t incr_before = CounterSum(*incremental, "update.eval_rows");
  const uint64_t full_before = CounterSum(*oracle_bed, "update.eval_rows");
  RunIncrementalOnce(*incremental, initiator);
  ASSERT_TRUE(oracle_bed->RunGlobalRefresh(initiator).ok());
  const uint64_t incr_rows =
      CounterSum(*incremental, "update.eval_rows") - incr_before;
  const uint64_t full_rows =
      CounterSum(*oracle_bed, "update.eval_rows") - full_before;

  EXPECT_EQ(Canonical(incremental->Snapshot()),
            Canonical(oracle_bed->Snapshot()));
  EXPECT_GT(incr_rows, 0u);
  EXPECT_GT(full_rows, 10 * incr_rows)
      << "semi-naive update did not beat the full recompute by 10x: "
      << incr_rows << " vs " << full_rows;
  EXPECT_EQ(CounterSum(*incremental, "update.delta_rows"), 2u);
}

// ---------------------------------------------------------------------------
// Empty delta: a no-op network-wide, but the diffusing computation still
// runs to completion and the callback fires exactly once.

TEST(IncrementalEdgeTest, EmptyDeltaTerminatesWithoutChangingAnything) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);
  const std::string initiator = NodeName(options.nodes - 1);
  std::unique_ptr<Testbed> bed = SpawnSynchronized(generated, initiator);
  ASSERT_NE(bed, nullptr);

  NetworkInstance before = Canonical(bed->Snapshot());
  const uint64_t data_before =
      bed->network().stats().MessagesOfType(MessageType::kUpdateData);
  const uint64_t messages_before = bed->network().stats().total_messages();
  RunIncrementalOnce(*bed, initiator);
  EXPECT_EQ(Canonical(bed->Snapshot()), before);
  EXPECT_EQ(CounterSum(*bed, "update.delta_rows"), 0u);
  // Nothing to say means no data messages at all, and with no data to
  // engage anyone the flow ends at its root without a message of any kind.
  EXPECT_EQ(bed->network().stats().MessagesOfType(MessageType::kUpdateData),
            data_before);
  EXPECT_EQ(bed->network().stats().total_messages(), messages_before);
}

// Re-running an incremental update after its delta was consumed ships
// nothing new: the pending delta was taken, and the export memory holds
// every frontier the first run shipped.

TEST(IncrementalEdgeTest, ReRunAfterConsumedDeltaShipsNothing) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);
  const std::string initiator = NodeName(options.nodes - 1);
  std::unique_ptr<Testbed> bed = SpawnSynchronized(generated, initiator);
  ASSERT_NE(bed, nullptr);

  DeltaBatch batch;
  batch["d"] = {Tuple{Value::Int(31001), Value::Int(7)}};
  ASSERT_TRUE(InsertBatch(*bed, initiator, batch).ok());
  RunIncrementalOnce(*bed, initiator);
  NetworkInstance after_first = Canonical(bed->Snapshot());

  const uint64_t data_before =
      bed->network().stats().MessagesOfType(MessageType::kUpdateData);
  RunIncrementalOnce(*bed, initiator);
  EXPECT_EQ(Canonical(bed->Snapshot()), after_first);
  EXPECT_EQ(bed->network().stats().MessagesOfType(MessageType::kUpdateData),
            data_before);
}

// ---------------------------------------------------------------------------
// The completion callback fires exactly once even when the flow dies by
// deadline abort instead of clean termination.

TEST(IncrementalEdgeTest, CallbackFiresOnceOnDeadlineAbort) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);
  const std::string initiator = NodeName(options.nodes - 1);

  Testbed::Options bed_options;
  bed_options.node.reliability.enabled = true;
  bed_options.node.reliability.retransmit_base_us = 20'000;
  bed_options.node.reliability.max_retries = 12;
  bed_options.node.reliability.flow_deadline_us = 500'000;
  Result<std::unique_ptr<Testbed>> bed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  // Silent partition mid-chain: the initiator's delta reaches n2 but n2's
  // data toward n1 vanishes, so only the root's deadline can end the
  // flow.
  ASSERT_TRUE(
      bed.value()->SetFault("n1", "n2", FaultProfile::Partition()).ok());

  DeltaBatch batch;
  batch["d"] = {Tuple{Value::Int(31001), Value::Int(5)}};
  ASSERT_TRUE(InsertBatch(*bed.value(), initiator, batch).ok());

  int fired = 0;
  Result<FlowId> flow =
      bed.value()->node(initiator)->StartIncrementalUpdate(
          [&fired](const FlowId&) { ++fired; });
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();
  bed.value()->network().Run();

  EXPECT_EQ(fired, 1) << "abort path must fire the callback exactly once";
  EXPECT_TRUE(bed.value()->AllComplete(flow.value()));
  const UpdateReport* report =
      bed.value()->node(initiator)->statistics().FindReport(flow.value());
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->aborted);
}


// ---------------------------------------------------------------------------
// Traffic shape: an incremental flow is data-driven. The delta's own data
// messages engage the peers it reaches; no request is flooded and no link
// is closed, so a row inserted in a copy tree costs one data message, one
// D-S ack and one completion per hop of its path to the root, and the
// rest of the tree never hears of the flow.

TEST(IncrementalTrafficTest, DeltaEngagesOnlyItsPathToTheRoot) {
  WorkloadOptions options;
  options.nodes = 15;
  options.tuples_per_node = 20;
  options.style = RuleStyle::kCopy;
  GeneratedNetwork generated = MakeTree(options);  // fanout 2
  std::unique_ptr<Testbed> bed = SpawnSynchronized(generated, "n0");
  ASSERT_NE(bed, nullptr);

  // n11 sits at depth 3; its rows travel n11 -> n5 -> n2 -> n0.
  const Tuple row{Value::Int(11 * 10000 + 5000), Value::Int(7)};
  ASSERT_TRUE(bed->node("n11")->InsertLocal("d", {row}).ok());

  const CostLedger& stats = bed->network().stats();
  const std::vector<MessageType> types = {
      MessageType::kUpdateRequest, MessageType::kLinkClosed,
      MessageType::kUpdateData, MessageType::kUpdateAck,
      MessageType::kUpdateComplete};
  std::map<MessageType, uint64_t> before;
  for (MessageType type : types) before[type] = stats.MessagesOfType(type);
  const uint64_t total_before = stats.total_messages();

  Result<FlowId> flow = bed->RunIncrementalUpdate("n11");
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();

  auto sent = [&](MessageType type) {
    return stats.MessagesOfType(type) - before[type];
  };
  EXPECT_EQ(sent(MessageType::kUpdateRequest), 0u);
  EXPECT_EQ(sent(MessageType::kLinkClosed), 0u);
  EXPECT_EQ(sent(MessageType::kUpdateData), 3u);
  EXPECT_EQ(sent(MessageType::kUpdateAck), 3u);
  EXPECT_EQ(sent(MessageType::kUpdateComplete), 3u);
  EXPECT_EQ(stats.total_messages() - total_before, 9u);

  const std::set<std::string> path = {"n11", "n5", "n2", "n0"};
  for (const auto& node : bed->nodes()) {
    SCOPED_TRACE(node->name());
    const UpdateManager* manager = node->update_manager();
    ASSERT_NE(manager, nullptr);
    const bool on_path = path.count(node->name()) > 0;
    EXPECT_EQ(manager->IsJoined(flow.value()), on_path);
    if (on_path) {
      EXPECT_TRUE(manager->IsComplete(flow.value()));
    }
  }
  EXPECT_TRUE(bed->node("n0")->database().Find("d")->Contains(row));
}

// ---------------------------------------------------------------------------
// ExportMemory on its own: the one record of what each incoming link has
// shipped, and the "already shipped?" decision every shipment makes.

std::vector<Tuple> Frontiers(std::initializer_list<int64_t> keys) {
  std::vector<Tuple> out;
  for (int64_t key : keys) out.push_back(Tuple{Value::Int(key)});
  return out;
}

TEST(ExportMemoryTest, WithinFlowDuplicatesAreDroppedUncounted) {
  ExportMemory memory;
  const uint64_t full = memory.NewEpoch();
  std::vector<Tuple> first = Frontiers({1, 2, 1});
  EXPECT_EQ(memory.Admit("r", full, /*incremental=*/false, first), 0u);
  EXPECT_EQ(first, Frontiers({1, 2}));
  std::vector<Tuple> second = Frontiers({2, 3});
  EXPECT_EQ(memory.Admit("r", full, /*incremental=*/false, second), 0u);
  EXPECT_EQ(second, Frontiers({3}));

  // An incremental flow's own repeats are not suppressions either.
  const uint64_t incremental = memory.NewEpoch();
  std::vector<Tuple> third = Frontiers({4, 4});
  EXPECT_EQ(memory.Admit("r", incremental, /*incremental=*/true, third), 0u);
  EXPECT_EQ(third, Frontiers({4}));
  std::vector<Tuple> fourth = Frontiers({4});
  EXPECT_EQ(memory.Admit("r", incremental, /*incremental=*/true, fourth), 0u);
  EXPECT_TRUE(fourth.empty());
}

TEST(ExportMemoryTest, FullFlowReshipsAndRetagsAnEarlierFlowsFrontier) {
  ExportMemory memory;
  const uint64_t earlier = memory.NewEpoch();
  const uint64_t later = memory.NewEpoch();
  ASSERT_NE(earlier, later);
  std::vector<Tuple> synced = Frontiers({1, 2});
  memory.Admit("r", earlier, /*incremental=*/false, synced);

  // A full update restates every export, so the same bytes go out again.
  std::vector<Tuple> restated = Frontiers({1, 2, 3});
  EXPECT_EQ(memory.Admit("r", later, /*incremental=*/false, restated), 0u);
  EXPECT_EQ(restated, Frontiers({1, 2, 3}));
  // Re-tagged: a repeat within the later flow is dropped...
  std::vector<Tuple> repeat = Frontiers({1});
  memory.Admit("r", later, /*incremental=*/false, repeat);
  EXPECT_TRUE(repeat.empty());
  // ...while the earlier flow, if still running, now sees another flow's
  // entry and re-ships (overlapping full flows; importers absorb it).
  std::vector<Tuple> overlap = Frontiers({1});
  memory.Admit("r", earlier, /*incremental=*/false, overlap);
  EXPECT_EQ(overlap, Frontiers({1}));
}

TEST(ExportMemoryTest, IncrementalFlowSuppressesEarlierFlowsFrontiers) {
  ExportMemory memory;
  std::vector<Tuple> synced = Frontiers({1, 2});
  memory.Admit("r", memory.NewEpoch(), /*incremental=*/false, synced);

  const uint64_t incremental = memory.NewEpoch();
  std::vector<Tuple> delta = Frontiers({3, 1, 4, 2});
  EXPECT_EQ(memory.Admit("r", incremental, /*incremental=*/true, delta), 2u);
  EXPECT_EQ(delta, Frontiers({3, 4}));
  // Memory is per rule: another link has shipped nothing yet.
  std::vector<Tuple> other = Frontiers({1});
  EXPECT_EQ(memory.Admit("s", incremental, /*incremental=*/true, other), 0u);
  EXPECT_EQ(other, Frontiers({1}));

  // The per-tuple Record predates every flow.
  EXPECT_TRUE(memory.Record("r", Tuple{Value::Int(9)}));
  EXPECT_FALSE(memory.Record("r", Tuple{Value::Int(9)}));
  std::vector<Tuple> recorded = Frontiers({9});
  EXPECT_EQ(memory.Admit("r", incremental, /*incremental=*/true, recorded),
            1u);
  EXPECT_TRUE(recorded.empty());
}

TEST(ExportMemoryTest, ForgetMakesAFrontierShippableAgain) {
  ExportMemory memory;
  const uint64_t full = memory.NewEpoch();
  std::vector<Tuple> shipped = Frontiers({1, 2});
  memory.Admit("r", full, /*incremental=*/false, shipped);
  memory.Forget("r", Frontiers({1}));
  EXPECT_FALSE(memory.Seen("r", Tuple{Value::Int(1)}));
  EXPECT_TRUE(memory.Seen("r", Tuple{Value::Int(2)}));

  std::vector<Tuple> same_flow = Frontiers({1, 2});
  EXPECT_EQ(memory.Admit("r", full, /*incremental=*/false, same_flow), 0u);
  EXPECT_EQ(same_flow, Frontiers({1}));
  memory.Forget("r", Frontiers({1}));
  std::vector<Tuple> incremental = Frontiers({1, 2});
  EXPECT_EQ(memory.Admit("r", memory.NewEpoch(), /*incremental=*/true,
                         incremental),
            1u);
  EXPECT_EQ(incremental, Frontiers({1}));
}

TEST(ExportMemoryTest, ResetForgetsEveryRule) {
  ExportMemory memory;
  const uint64_t full = memory.NewEpoch();
  for (const char* rule : {"r", "s"}) {
    std::vector<Tuple> shipped = Frontiers({1, 2});
    memory.Admit(rule, full, /*incremental=*/false, shipped);
  }
  memory.Reset();
  const uint64_t incremental = memory.NewEpoch();
  for (const char* rule : {"r", "s"}) {
    EXPECT_FALSE(memory.Seen(rule, Tuple{Value::Int(1)})) << rule;
    std::vector<Tuple> delta = Frontiers({1, 2});
    EXPECT_EQ(memory.Admit(rule, incremental, /*incremental=*/true, delta),
              0u);
    EXPECT_EQ(delta, Frontiers({1, 2})) << rule;
  }
}

TEST(ExportMemoryTest, SyncRulesDropsVanishedAndClearsChangedRules) {
  ExportMemory memory;
  memory.SyncRules({{"kept", "k"}, {"changed", "c1"}, {"vanished", "v"}});
  const Tuple frontier{Value::Int(1)};
  for (const char* rule : {"kept", "changed", "vanished"}) {
    EXPECT_TRUE(memory.Record(rule, frontier)) << rule;
  }

  memory.SyncRules({{"kept", "k"}, {"changed", "c2"}});
  EXPECT_TRUE(memory.Seen("kept", frontier));
  EXPECT_FALSE(memory.Seen("changed", frontier));
  EXPECT_FALSE(memory.Seen("vanished", frontier));
  // A rule that comes back under its old text starts over too.
  memory.SyncRules({{"kept", "k"}, {"changed", "c2"}, {"vanished", "v"}});
  EXPECT_FALSE(memory.Seen("vanished", frontier));
  EXPECT_TRUE(memory.Seen("kept", frontier));
}

}  // namespace
}  // namespace codb
