// Integration tests of crash recovery: nodes with durable storage are
// killed (cleanly or mid-global-update), restarted from disk, and the
// network must converge back to the oracle fixed point. Also checks that
// durability counters flow into the super-peers' final reports.

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "query/homomorphism.h"
#include "storage/fs_util.h"
#include "test_util.h"
#include "workload/testbed.h"

namespace codb {
namespace {

// A scratch storage root with the per-node subdirectories of a previous
// run emptied (the testbed stores node state under <root>/<node name>).
std::string FreshStorageRoot(const std::string& name, int nodes) {
  std::string root = ::testing::TempDir() + "codb_recovery_" + name;
  for (int i = 0; i < nodes; ++i) {
    std::string dir = root + "/n" + std::to_string(i);
    Result<std::vector<std::string>> stale = ListDirectory(dir);
    if (!stale.ok()) continue;
    for (const std::string& file : stale.value()) {
      EXPECT_TRUE(RemoveFile(dir + "/" + file).ok());
    }
  }
  return root;
}

TEST(RecoveryIntegrationTest, CleanKillRestartRecoversExactStore) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options bed_options;
  bed_options.storage.directory = FreshStorageRoot("clean", options.nodes);
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  Instance before = bed.node("n1")->database().Snapshot();
  ASSERT_GT(before.at("d").size(), 3u);  // imports beyond the seed

  ASSERT_TRUE(bed.KillNode("n1").ok());
  EXPECT_EQ(bed.node("n1"), nullptr);

  Result<Node*> revived = bed.RestartNode("n1");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  // No re-seeding happened: the store came back from checkpoint + WAL.
  EXPECT_EQ(revived.value()->database().Snapshot(), before);
  EXPECT_GT(revived.value()->durable_storage()->recovery().checkpoint_tuples,
            0u);

  // Durability counters travel in the stats reports' metrics trailer to
  // the super-peer, as storage.* entries.
  ASSERT_TRUE(bed.CollectStats().ok());
  const auto& metrics = bed.super_peer().collected_metrics();
  ASSERT_NE(metrics.find("n1"), metrics.end());
  const auto& n1 = metrics.at("n1").entries;
  ASSERT_NE(n1.find("storage.recovered.checkpoint_tuples"), n1.end());
  ASSERT_NE(n1.find("storage.recovered.wal_records"), n1.end());
  EXPECT_GT(n1.at("storage.recovered.checkpoint_tuples").value +
                n1.at("storage.recovered.wal_records").value,
            0);
  EXPECT_NE(bed.super_peer().FinalReport().find("storage.recoveries"),
            std::string::npos);
}

TEST(RecoveryIntegrationTest, FederatedReportCarriesDurability) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options bed_options;
  bed_options.storage.directory =
      FreshStorageRoot("federated", options.nodes);
  bed_options.super_peers = 2;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  ASSERT_EQ(bed.super_of("n3"), &bed.super_peer(1));

  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  ASSERT_TRUE(bed.KillNode("n3").ok());
  Result<Node*> revived = bed.RestartNode("n3");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  ASSERT_TRUE(bed.CollectStats().ok());

  // Only n3 recovered rows from disk, and it reports to super 1: super 0
  // sees that recovery through super 1's digest alone.
  const DurabilityStats& n3 = revived.value()->statistics().durability();
  ASSERT_GT(n3.recovered_checkpoint_tuples, 0u);
  const MetricsSnapshot own = bed.super_peer(0).MergedMetrics();
  EXPECT_EQ(own.entries.at("storage.recovered.checkpoint_tuples").value, 0);
  const MetricsSnapshot federated = bed.super_peer(0).FederatedMetrics();
  ASSERT_NE(federated.entries.find("storage.recovered.checkpoint_tuples"),
            federated.entries.end());
  EXPECT_EQ(federated.entries.at("storage.recovered.checkpoint_tuples").value,
            static_cast<int64_t>(n3.recovered_checkpoint_tuples));
  // Every storage open counts a recovery; the federated sum covers every
  // live node of both regions.
  uint64_t recoveries = 0;
  for (const auto& node : bed.nodes()) {
    recoveries += node->statistics().durability().recoveries;
  }
  ASSERT_NE(federated.entries.find("storage.recoveries"),
            federated.entries.end());
  EXPECT_EQ(federated.entries.at("storage.recoveries").value,
            static_cast<int64_t>(recoveries));

  const std::string report = bed.super_peer(0).FinalReport();
  EXPECT_NE(report.find("2 super-peers"), std::string::npos);
  EXPECT_NE(report.find("storage.recoveries"), std::string::npos);
  EXPECT_NE(report.find("storage.recovered.checkpoint_tuples"),
            std::string::npos);
}

TEST(RecoveryIntegrationTest, KillMidUpdateRestartsAndConverges) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options bed_options;
  bed_options.storage.directory = FreshStorageRoot("churn", options.nodes);
  bed_options.storage.checkpoint_every = 2;  // checkpoints during the run
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  // Start a global update but run only a handful of events: the network
  // is killed mid-diffusion, with data messages still in flight.
  ASSERT_TRUE(bed.node("n0")->StartGlobalUpdate().ok());
  bed.network().Run(10);
  ASSERT_TRUE(bed.KillNode("n1").ok());
  bed.network().Run();  // drain what the dead node's absence leaves behind

  // Restart from disk: whatever n1 had durably imported survives; the
  // half-finished update is abandoned by the config re-broadcast.
  Result<Node*> revived = bed.RestartNode("n1");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_GE(revived.value()->database().Find("d")->size(), 3u);  // the seed

  // A fresh global update from the initiator converges the network to the
  // oracle fixed point (updates are monotone, so the partially recovered
  // imports are simply a head start).
  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok());
  bed.network().Run();
  ASSERT_TRUE(bed.AllComplete(update.value()));

  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, generated.seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = bed.Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "node " << node;
  }
}

TEST(RecoveryIntegrationTest, RefreshPlusCheckpointMakesDeletionDurable) {
  // The WAL is insert-only, so a refresh-propagated deletion becomes
  // durable through the next checkpoint: recovery starts from the
  // post-refresh snapshot and the deleted tuple cannot resurrect from
  // older WAL records (they are bounded by the checkpoint's LSN).
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options bed_options;
  bed_options.storage.directory = FreshStorageRoot("refresh", options.nodes);
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());

  // First kill/restart cycle, then delete an imported tuple at its source
  // and refresh the network: it disappears downstream.
  ASSERT_TRUE(bed.KillNode("n0").ok());
  Result<Node*> revived = bed.RestartNode("n0");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();

  Tuple victim = generated.seeds.at("n2").at("d")[0];
  test::DeleteTuple(bed.node("n2")->database(), "d", victim);
  Result<FlowId> refresh = bed.node("n1")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  bed.network().Run();
  ASSERT_TRUE(bed.AllComplete(refresh.value()));
  ASSERT_FALSE(bed.node("n1")->database().Find("d")->Contains(victim));

  // Checkpoint the post-refresh store, then cycle n1 again: the deletion
  // held, the rest of the store is intact, and checkpoint numbering
  // resumed past the previous incarnation's files.
  Instance post_refresh = bed.node("n1")->database().Snapshot();
  ASSERT_TRUE(bed.node("n1")->durable_storage()->Checkpoint().ok());
  ASSERT_TRUE(bed.KillNode("n1").ok());
  revived = bed.RestartNode("n1");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(revived.value()->database().Snapshot(), post_refresh);
  EXPECT_FALSE(revived.value()->database().Find("d")->Contains(victim));
  EXPECT_GT(revived.value()->durable_storage()->recovery().checkpoint_lsn,
            0u);
}

}  // namespace
}  // namespace codb
