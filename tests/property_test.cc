// Property-based sweeps: for every (topology, rule style, seed)
// combination, the distributed global update must
//   (1) terminate with every joined node complete,
//   (2) agree with the path-bounded oracle — exactly on the certain part
//       and up to homomorphic equivalence overall — on topologies whose
//       frontier derivations are unique (disjoint seed keys guarantee
//       this on chains, stars, trees and directed rings),
//   (3) map homomorphically into the naive fixpoint (soundness upper
//       bound) whenever the latter converges,
//   (4) report internally consistent statistics.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/oracle.h"
#include "query/homomorphism.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

enum class Topology { kChain, kRing, kStar, kTree, kGrid, kRandom };

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kChain:
      return "Chain";
    case Topology::kRing:
      return "Ring";
    case Topology::kStar:
      return "Star";
    case Topology::kTree:
      return "Tree";
    case Topology::kGrid:
      return "Grid";
    case Topology::kRandom:
      return "Random";
  }
  return "?";
}

const char* StyleName(RuleStyle s) {
  switch (s) {
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

GeneratedNetwork Generate(Topology topology, const WorkloadOptions& options) {
  switch (topology) {
    case Topology::kChain:
      return MakeChain(options);
    case Topology::kRing:
      return MakeRing(options);
    case Topology::kStar:
      return MakeStar(options);
    case Topology::kTree:
      return MakeTree(options);
    case Topology::kGrid:
      return MakeGrid(options);
    case Topology::kRandom:
      return MakeRandom(options);
  }
  return MakeChain(options);
}

// Unique-derivation topologies where exact oracle agreement is asserted.
bool ExactnessExpected(Topology t) {
  return t == Topology::kChain || t == Topology::kStar ||
         t == Topology::kTree || t == Topology::kRing;
}

using SweepParam = std::tuple<Topology, RuleStyle, uint64_t /*seed*/>;

class GlobalUpdateSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GlobalUpdateSweep, MatchesReferenceSemantics) {
  auto [topology, style, seed] = GetParam();

  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 4;
  options.seed = seed;
  options.style = style;
  options.grid_rows = 2;
  options.grid_cols = 3;
  options.edge_probability = 0.4;
  GeneratedNetwork generated = Generate(topology, options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  // (1) Termination: every joined node completed.
  EXPECT_TRUE(bed.AllComplete(update.value()));

  NetworkInstance actual = bed.Snapshot();

  // (2) Oracle agreement on unique-derivation topologies.
  if (ExactnessExpected(topology)) {
    Result<NetworkInstance> oracle =
        Oracle::PathBounded(generated.config, generated.seeds);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (const auto& [node, instance] : oracle.value()) {
      EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
          << "certain part mismatch at " << node;
      EXPECT_TRUE(HomEquivalent(instance, actual.at(node)))
          << "hom-equivalence failed at " << node;
    }
  }

  // (3) Soundness against the naive fixpoint (when it converges; project
  // style on cyclic topologies may not, and that is fine).
  Result<NetworkInstance> naive =
      Oracle::NaiveFixpoint(generated.config, generated.seeds,
                            /*max_rounds=*/200);
  if (naive.ok()) {
    for (const auto& [node, instance] : actual) {
      EXPECT_TRUE(HasHomomorphism(instance, naive.value().at(node)))
          << "unsound data at " << node;
    }
  }

  // (4) Statistics sanity.
  for (const auto& node : bed.nodes()) {
    const UpdateReport* report =
        node->statistics().FindReport(update.value());
    if (report == nullptr) continue;
    EXPECT_LE(report->longest_path_nodes,
              static_cast<uint32_t>(generated.config.nodes().size()));
    EXPECT_GE(report->complete_virtual_us, report->start_virtual_us);
    if (report->data_messages_received > 0) {
      EXPECT_GT(report->data_bytes_received, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GlobalUpdateSweep,
    ::testing::Combine(
        ::testing::Values(Topology::kChain, Topology::kRing, Topology::kStar,
                          Topology::kTree, Topology::kGrid,
                          Topology::kRandom),
        ::testing::Values(RuleStyle::kCopy, RuleStyle::kProject,
                          RuleStyle::kJoin, RuleStyle::kFilter,
                          RuleStyle::kMultiHead, RuleStyle::kJoinCopy),
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 42u)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(TopologyName(std::get<0>(info.param))) +
             StyleName(std::get<1>(info.param)) + "Seed" +
             std::to_string(std::get<2>(info.param));
    });

// Initiator-independence: the final instances do not depend on which node
// starts the global update (on unique-derivation topologies).
class InitiatorSweep : public ::testing::TestWithParam<int> {};

TEST_P(InitiatorSweep, ResultIndependentOfInitiator) {
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 3;
  options.seed = 11;
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  std::string initiator = NodeName(GetParam());
  Result<FlowId> update = testbed.value()->RunGlobalUpdate(initiator);
  ASSERT_TRUE(update.ok());

  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, generated.seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = testbed.value()->Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "initiator " << initiator << ", node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(AllInitiators, InitiatorSweep,
                         ::testing::Range(0, 5));

// Dedup ablations (experiment E6): disabling either dedup must preserve
// the final result while strictly increasing traffic on cyclic nets.
struct DedupParam {
  bool dedup_received;
  bool dedup_sent;
};

class DedupSweep : public ::testing::TestWithParam<DedupParam> {};

TEST_P(DedupSweep, ResultUnchangedTrafficGrows) {
  // A grid delivers the same data to a node along multiple simple paths,
  // which is exactly the duplication the two dedups suppress.
  WorkloadOptions options;
  options.tuples_per_node = 4;
  options.grid_rows = 2;
  options.grid_cols = 3;
  GeneratedNetwork generated = MakeGrid(options);

  auto run = [&](UpdateManager::Options update_options)
      -> std::pair<NetworkInstance, uint64_t> {
    Testbed::Options testbed_options;
    testbed_options.node.update = update_options;
    Result<std::unique_ptr<Testbed>> testbed =
        Testbed::Create(generated, testbed_options);
    EXPECT_TRUE(testbed.ok()) << testbed.status().ToString();
    Result<FlowId> update = testbed.value()->RunGlobalUpdate("n0");
    EXPECT_TRUE(update.ok());
    EXPECT_TRUE(testbed.value()->AllComplete(update.value()));
    uint64_t data_messages =
        testbed.value()->network().stats().MessagesOfType(
            MessageType::kUpdateData);
    return {testbed.value()->Snapshot(), data_messages};
  };

  auto [baseline_instances, baseline_messages] = run({});

  UpdateManager::Options ablated;
  ablated.dedup_received = GetParam().dedup_received;
  ablated.dedup_sent = GetParam().dedup_sent;
  auto [ablated_instances, ablated_messages] = run(ablated);

  // Same certain data everywhere.
  for (const auto& [node, instance] : baseline_instances) {
    EXPECT_EQ(CertainPart(instance),
              CertainPart(ablated_instances.at(node)))
        << "node " << node;
  }
  // Never less traffic than the fully-dedupped baseline.
  EXPECT_GE(ablated_messages, baseline_messages);
  if (!GetParam().dedup_sent && !GetParam().dedup_received) {
    // With both dedups off, every duplicate arrival re-derives and
    // re-ships frontiers: strictly more data messages.
    EXPECT_GT(ablated_messages, baseline_messages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, DedupSweep,
    ::testing::Values(DedupParam{false, true}, DedupParam{true, false},
                      DedupParam{false, false}),
    [](const ::testing::TestParamInfo<DedupParam>& info) {
      return std::string("Recv") +
             (info.param.dedup_received ? "On" : "Off") + "Sent" +
             (info.param.dedup_sent ? "On" : "Off");
    });

}  // namespace
}  // namespace codb
