// Tests of refresh updates: deletion propagation through import
// provenance. A refresh drops every node's imported tuples and re-derives
// the network state, so data deleted at its source disappears everywhere.

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "query/homomorphism.h"
#include "test_util.h"
#include "workload/testbed.h"

namespace codb {
namespace {

using test::DeleteTuple;

TEST(RefreshTest, SourceDeletionPropagatesOnRefresh) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  ASSERT_EQ(bed.node("n0")->database().Find("d")->size(), 12u);

  // Delete one of n3's tuples at the source.
  Tuple victim = generated.seeds.at("n3").at("d")[0];
  DeleteTuple(bed.node("n3")->database(), "d", victim);

  // A plain update cannot remove it downstream...
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  EXPECT_TRUE(bed.node("n0")->database().Find("d")->Contains(victim));

  // ...a refresh does.
  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  bed.network().Run();
  EXPECT_TRUE(bed.AllComplete(refresh.value()));

  for (const char* node : {"n0", "n1", "n2"}) {
    EXPECT_FALSE(bed.node(node)->database().Find("d")->Contains(victim))
        << node;
  }
  // Everything still derivable is back.
  EXPECT_EQ(bed.node("n0")->database().Find("d")->size(), 11u);
}

TEST(RefreshTest, RefreshMatchesOracleOnCurrentLocalData) {
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());

  // Mutate the sources: delete one tuple at n1, add one at n2.
  Tuple victim = generated.seeds.at("n1").at("d")[0];
  DeleteTuple(bed.node("n1")->database(), "d", victim);
  Tuple added{Value::Int(123456), Value::Int(7)};
  bed.node("n2")->database().Find("d")->Insert(added);

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok());
  bed.network().Run();
  ASSERT_TRUE(bed.AllComplete(refresh.value()));

  // The oracle run on the *current* local data predicts the outcome.
  NetworkInstance current_seeds = generated.seeds;
  {
    auto& n1_d = current_seeds.at("n1").at("d");
    n1_d.erase(std::remove(n1_d.begin(), n1_d.end(), victim), n1_d.end());
    current_seeds.at("n2").at("d").push_back(added);
  }
  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, current_seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = bed.Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "node " << node;
  }
}

TEST(RefreshTest, LocalDataSurvivesRefresh) {
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());

  // A tuple inserted locally at n0 (not imported) must survive.
  Tuple local{Value::Int(777), Value::Int(7)};
  bed.node("n0")->database().Find("d")->Insert(local);

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok());
  bed.network().Run();
  EXPECT_TRUE(bed.node("n0")->database().Find("d")->Contains(local));
  // Imports re-derived: 3 own + 3 imported + 1 local extra.
  EXPECT_EQ(bed.node("n0")->database().Find("d")->size(), 7u);
}

TEST(RefreshTest, DeletionAtTheImporterLeavesProvenanceWithItsRows) {
  // A deletion at n0 rebuilds its relation (Database::Replace), so every
  // later row moves up a position. The import flags must move with their
  // rows: the refresh then drops exactly the imported rows.
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  ASSERT_EQ(bed.node("n0")->database().Find("d")->size(), 6u);

  const std::vector<Tuple>& own = generated.seeds.at("n0").at("d");
  DeleteTuple(bed.node("n0")->database(), "d", own[0]);
  const Tuple source = generated.seeds.at("n1").at("d")[0];
  DeleteTuple(bed.node("n1")->database(), "d", source);

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok());
  bed.network().Run();
  ASSERT_TRUE(bed.AllComplete(refresh.value()));

  // n0's two remaining own rows and n1's two remaining rows.
  const Relation* d = bed.node("n0")->database().Find("d");
  EXPECT_EQ(d->size(), 4u);
  EXPECT_FALSE(d->Contains(source));
  EXPECT_FALSE(d->Contains(own[0]));
  EXPECT_TRUE(d->Contains(own[1]));
  EXPECT_TRUE(d->Contains(own[2]));
}

TEST(RefreshTest, RefreshIsIdempotent) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeTree(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  NetworkInstance after_update = bed.Snapshot();

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok());
  bed.network().Run();
  EXPECT_EQ(bed.Snapshot(), after_update);

  Result<FlowId> again = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(again.ok());
  bed.network().Run();
  EXPECT_EQ(bed.Snapshot(), after_update);
}

TEST(RefreshTest, ExistentialImportsRefreshToEquivalentInstance) {
  // With projection rules the refreshed instance carries fresh null
  // labels but must be homomorphically equivalent to the original.
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 4;
  options.style = RuleStyle::kProject;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  NetworkInstance before = bed.Snapshot();

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok());
  bed.network().Run();
  NetworkInstance after = bed.Snapshot();

  for (const auto& [node, instance] : before) {
    EXPECT_TRUE(HomEquivalent(instance, after.at(node))) << node;
    EXPECT_EQ(instance.at("d").size(), after.at(node).at("d").size())
        << node;
  }
}

}  // namespace
}  // namespace codb
