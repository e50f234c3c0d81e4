// Tests of the super-peer: config broadcast, statistics collection and
// aggregation, and the node-side report surfaces (the textual "UI").

#include <gtest/gtest.h>

#include "net/network.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

TEST(SuperPeerTest, CollectsStatsFromEveryNode) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());

  ASSERT_TRUE(bed.CollectStats().ok());
  EXPECT_TRUE(bed.super_peer().CollectionComplete());
  EXPECT_EQ(bed.super_peer().collected().size(), 4u);
  for (const auto& [node, reports] : bed.super_peer().collected()) {
    EXPECT_FALSE(reports.empty()) << node;
  }
}

TEST(SuperPeerTest, AggregationAddsUpAcrossNodes) {
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(bed.CollectStats().ok());

  std::vector<AggregatedUpdateStats> aggregated =
      bed.super_peer().Aggregate();
  ASSERT_EQ(aggregated.size(), 1u);
  const AggregatedUpdateStats& agg = aggregated[0];
  EXPECT_EQ(agg.update, update.value());
  EXPECT_EQ(agg.nodes_reporting, 5u);
  EXPECT_GT(agg.total_virtual_us, 0);
  // On a 5-chain the network-wide data-message count equals the sum of
  // per-node receive counts; each of n1..n4's exports contributes.
  EXPECT_GE(agg.data_messages, 4u);
  // n0 eventually holds all 5*4 d-tuples (4 nodes' worth imported, each
  // also re-shipped down the chain once).
  EXPECT_GT(agg.tuples_added, 0u);
  // Longest path on a 5-chain: 5 nodes.
  EXPECT_EQ(agg.longest_path_nodes, 5u);
  // Per-rule traffic covers all 4 chain rules.
  EXPECT_EQ(agg.per_rule.size(), 4u);
}

TEST(SuperPeerTest, FinalReportMentionsEverything) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  ASSERT_TRUE(bed.CollectStats().ok());

  std::string report = bed.super_peer().FinalReport();
  EXPECT_NE(report.find("final statistical report"), std::string::npos);
  EXPECT_NE(report.find("update/"), std::string::npos);
  EXPECT_NE(report.find("longest path"), std::string::npos);
  EXPECT_NE(report.find("rule"), std::string::npos);
}

TEST(SuperPeerTest, StatsForMultipleUpdatesStaySeparate) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> first = bed.RunGlobalUpdate("n0");
  Result<FlowId> second = bed.RunGlobalUpdate("n2");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(bed.CollectStats().ok());

  std::vector<AggregatedUpdateStats> aggregated =
      bed.super_peer().Aggregate();
  ASSERT_EQ(aggregated.size(), 2u);
  EXPECT_FALSE(aggregated[0].update == aggregated[1].update);
}

TEST(SuperPeerTest, BroadcastRequiresConfig) {
  Network network;
  std::unique_ptr<SuperPeer> super_peer = SuperPeer::Create(&network);
  EXPECT_EQ(super_peer->BroadcastConfig().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SuperPeerTest, LoadConfigTextValidates) {
  Network network;
  std::unique_ptr<SuperPeer> super_peer = SuperPeer::Create(&network);
  EXPECT_FALSE(super_peer->LoadConfigText("garbage").ok());
  EXPECT_TRUE(super_peer
                  ->LoadConfigText("node a\n  relation d(k:int)\n")
                  .ok());
  ASSERT_NE(super_peer->config(), nullptr);
  EXPECT_EQ(super_peer->config()->nodes().size(), 1u);
}

TEST(FederationTest, RegionedSupersCoverTheNetworkTogether) {
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options bed_options;
  bed_options.super_peers = 2;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  // Two contiguous regions of three nodes each.
  ASSERT_EQ(bed.super_peer_count(), 2u);
  EXPECT_EQ(bed.super_peer(0).region().size(), 3u);
  EXPECT_EQ(bed.super_peer(1).region().size(), 3u);
  EXPECT_EQ(bed.super_of("n1"), &bed.super_peer(0));
  EXPECT_EQ(bed.super_of("n4"), &bed.super_peer(1));

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(bed.CollectStats().ok());

  // Each super collected exactly its own region...
  EXPECT_EQ(bed.super_peer(0).collected().size(), 3u);
  EXPECT_EQ(bed.super_peer(1).collected().size(), 3u);
  EXPECT_TRUE(bed.super_peer(0).FederationComplete());
  EXPECT_TRUE(bed.super_peer(1).FederationComplete());

  // ...yet the federated view is network-wide, from either super.
  for (size_t s = 0; s < 2; ++s) {
    std::vector<AggregatedUpdateStats> federated =
        bed.super_peer(s).FederatedAggregate();
    ASSERT_EQ(federated.size(), 1u) << "super " << s;
    const AggregatedUpdateStats& agg = federated[0];
    EXPECT_EQ(agg.update, update.value());
    EXPECT_EQ(agg.nodes_reporting, 6u);
    EXPECT_EQ(agg.longest_path_nodes, 6u);
    EXPECT_EQ(agg.per_rule.size(), 5u);
    // The global span is recomputed from the merged endpoints, so it is
    // at least as wide as either region's own span.
    EXPECT_GT(agg.total_virtual_us, 0);
    for (const AggregatedUpdateStats& regional :
         bed.super_peer(s).Aggregate()) {
      EXPECT_GE(agg.total_virtual_us, regional.total_virtual_us);
    }
  }

  std::string report = bed.super_peer(1).FinalReport();
  EXPECT_NE(report.find("final statistical report (6 nodes, 2 super-peers)"),
            std::string::npos);
  EXPECT_NE(report.find("update/"), std::string::npos);
  EXPECT_NE(report.find("longest path"), std::string::npos);
}

TEST(FederationTest, NodeDyingMidUpdateIsEvictedAndReportsSurvive) {
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options bed_options;
  bed_options.super_peers = 2;
  bed_options.membership = true;
  bed_options.membership_options.period_us = 200'000;
  // A retransmission backoff far beyond the test horizon: completion can
  // only come from the eviction cancelling the dead peer's deficits, not
  // from the retry budget draining.
  bed_options.node.reliability.enabled = true;
  bed_options.node.reliability.retransmit_base_us = 30'000'000;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  NetworkBase& net = bed.network();
  const int64_t period = bed_options.membership_options.period_us;

  // Establish tracking everywhere (grace = 2 periods), then the chain's
  // tail dies silently — no pipe event; only suspicion can find it.
  net.RunFor(5 * period);
  PeerId dead = bed.node("n5")->id();
  ASSERT_TRUE(bed.SilentKillNode("n5").ok());

  // An update started while the corpse is still presumed alive: n4 ships
  // toward n5 and waits on acks that will never come.
  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok());
  net.RunFor(10 * period);

  // Suspicion fired and the eviction propagated: n4 and super-1 both
  // presume n5 dead, n4's retransmissions were cancelled outright, and
  // the update terminated exactly once on the surviving topology.
  EXPECT_FALSE(bed.node("n4")->IsPresumedAlive(dead));
  EXPECT_FALSE(bed.super_peer(1).IsPresumedAlive(dead));
  EXPECT_GE(bed.node("n4")->membership()->counters().evictions, 1u);
  EXPECT_EQ(bed.node("n4")->update_manager()->PendingReliable(), 0u);
  EXPECT_TRUE(bed.AllComplete(update.value()));
  for (const char* name : {"n0", "n1", "n2", "n3", "n4"}) {
    EXPECT_TRUE(bed.node(name)->update_manager()->IsComplete(update.value()))
        << name;
  }

  // Collection skips the evicted member instead of hanging on it, and the
  // federated report reflects the surviving topology.
  ASSERT_TRUE(bed.CollectStats().ok());
  std::vector<AggregatedUpdateStats> federated =
      bed.super_peer(0).FederatedAggregate();
  ASSERT_EQ(federated.size(), 1u);
  EXPECT_EQ(federated[0].nodes_reporting, 5u);
  EXPECT_EQ(bed.super_peer(1).collected().count("n5"), 0u);
}

TEST(NodeReportTest, ReportAndDiscoveryViewSurfaceTheArchitecture) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());

  std::string report = bed.node("n1")->Report();
  EXPECT_NE(report.find("node n1"), std::string::npos);
  EXPECT_NE(report.find("exported schema"), std::string::npos);
  EXPECT_NE(report.find("outgoing links"), std::string::npos);
  EXPECT_NE(report.find("incoming links"), std::string::npos);
  EXPECT_NE(report.find("update report"), std::string::npos);

  // Discovery: n0 is not pipe-connected to n2, but knows it exists.
  std::string view = bed.node("n0")->DiscoveryView();
  EXPECT_NE(view.find("acquaintances"), std::string::npos);
  EXPECT_NE(view.find("n1"), std::string::npos);
  EXPECT_NE(view.find("discovered"), std::string::npos);
  EXPECT_NE(view.find("n2"), std::string::npos);
}

}  // namespace
}  // namespace codb
