// Racing flows under the threaded runtime: several query flows race one
// global update across the peers' delivery threads. The update inserts
// monotonically (kJoinCopy derives no deletions and no nulls), so every
// racing query must observe a store *sandwiched* between the pre-update
// and the post-update state:
//
//     A_pre(n)  ⊆  certain answers of a query racing at n  ⊆  A_post(n)
//
// where A_pre/A_post are the node's local d-rows before/after the update.
// On top of the sandwich, completion callbacks must fire exactly once per
// flow, and at teardown no foreign query state may be leaked anywhere in
// the network. With durable storage on, the race must also leave every
// node a journal that replays to exactly its final store.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "query/parser.h"
#include "storage/fs_util.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  Result<ConjunctiveQuery> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

Testbed::Options ConcurrentOptions() {
  Testbed::Options options;
  options.threaded = true;
  options.node.link_profile.latency_us = 200;
  options.node.link_profile.bandwidth_bpus = 0;
  return options;
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool IsSubset(const std::vector<Tuple>& small,
              const std::vector<Tuple>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

void ExpectNoLeakedFlows(Testbed& bed) {
  for (const auto& node : bed.nodes()) {
    ASSERT_NE(node->query_manager(), nullptr);
    EXPECT_EQ(node->query_manager()->ForeignQueryStates(), 0u)
        << "foreign query state leaked on " << node->name();
  }
}

TEST(ConcurrentFlowsTest, QueriesRacingAnUpdateSeeSandwichedStores) {
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 6;
  options.style = RuleStyle::kJoinCopy;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, ConcurrentOptions());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  const std::vector<std::string> kQueryNodes = {"n1", "n2", "n3", "n4"};

  // Pre-update local state per querying node.
  std::vector<std::vector<Tuple>> pre;
  for (const std::string& name : kQueryNodes) {
    Result<std::vector<Tuple>> rows = bed.node(name)->LocalQuery(kQuery);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    pre.push_back(Sorted(std::move(rows).value()));
  }

  // Launch the update and all queries before running the network, so
  // their traffic genuinely interleaves on the delivery threads.
  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  std::vector<std::atomic<int>> done_counts(kQueryNodes.size());
  std::vector<FlowId> queries;
  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    std::atomic<int>* done = &done_counts[i];
    Result<FlowId> query = bed.node(kQueryNodes[i])->StartQuery(
        kQuery, [done](const QueryManager::QueryProgress& progress) {
          if (progress.done) done->fetch_add(1);
        });
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(query.value());
  }

  bed.network().Run();

  EXPECT_TRUE(bed.AllComplete(update.value()));
  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    Node* node = bed.node(kQueryNodes[i]);
    SCOPED_TRACE("query node " + kQueryNodes[i]);

    // Exactly-once completion.
    EXPECT_TRUE(node->QueryDone(queries[i]));
    EXPECT_EQ(done_counts[i].load(), 1);

    Result<std::vector<Tuple>> racing =
        node->CertainQueryAnswers(queries[i]);
    ASSERT_TRUE(racing.ok()) << racing.status().ToString();
    Result<std::vector<Tuple>> post = node->LocalQuery(kQuery);
    ASSERT_TRUE(post.ok()) << post.status().ToString();

    std::vector<Tuple> racing_sorted = Sorted(std::move(racing).value());
    std::vector<Tuple> post_sorted = Sorted(std::move(post).value());
    EXPECT_TRUE(IsSubset(pre[i], racing_sorted))
        << "racing query missed pre-update local data";
    EXPECT_TRUE(IsSubset(racing_sorted, post_sorted))
        << "racing query answered with data absent from the final store";
  }

  ExpectNoLeakedFlows(bed);
}

TEST(ConcurrentFlowsTest, RacingFlowsSurviveAnUnreliableNetwork) {
  // Same race, but every link drops 1% of messages and the at-least-once
  // layer papers over it. The sandwich upper bound still holds (answers
  // never contain data the final store lacks); the lower bound is only
  // asserted for queries that actually completed, since a flow that gave
  // up after max retries legitimately returns partial data.
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 5;
  options.style = RuleStyle::kJoinCopy;
  GeneratedNetwork generated = MakeChain(options);

  Testbed::Options testbed_options = ConcurrentOptions();
  testbed_options.fault = FaultProfile::Drop(0.01, /*seed=*/17);
  testbed_options.node.reliability.enabled = true;
  testbed_options.node.reliability.retransmit_base_us = 5'000;
  testbed_options.node.reliability.max_retries = 10;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, testbed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  const std::vector<std::string> kQueryNodes = {"n1", "n2", "n3"};

  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  std::vector<std::atomic<int>> done_counts(kQueryNodes.size());
  std::vector<FlowId> queries;
  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    std::atomic<int>* done = &done_counts[i];
    Result<FlowId> query = bed.node(kQueryNodes[i])->StartQuery(
        kQuery, [done](const QueryManager::QueryProgress& progress) {
          if (progress.done) done->fetch_add(1);
        });
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(query.value());
  }

  bed.network().Run();

  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    Node* node = bed.node(kQueryNodes[i]);
    SCOPED_TRACE("query node " + kQueryNodes[i]);

    // Never more than one completion event, even with retransmissions
    // and duplicate deliveries in play.
    EXPECT_LE(done_counts[i].load(), 1);
    if (!node->QueryDone(queries[i])) continue;
    EXPECT_EQ(done_counts[i].load(), 1);

    Result<std::vector<Tuple>> racing =
        node->CertainQueryAnswers(queries[i]);
    ASSERT_TRUE(racing.ok()) << racing.status().ToString();
    Result<std::vector<Tuple>> post = node->LocalQuery(kQuery);
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    EXPECT_TRUE(IsSubset(Sorted(std::move(racing).value()),
                         Sorted(std::move(post).value())))
        << "racing query answered with data absent from the final store";
  }

  ExpectNoLeakedFlows(bed);
}

TEST(ConcurrentFlowsTest, QueriesRacingARefreshReadPreOrPostRows) {
  // Queries race a refresh that follows a deletion and an insertion at the
  // chain's far end. The refresh swaps every importer's relation out
  // (Database::Replace) while query snapshots still read the old ones.
  // With copy rules every row a query can meet is a row some store held
  // before or after the refresh, so a racing query answers within
  //
  //     answers(n)  ⊆  S_pre(n) ∪ S_post(n)
  //
  // and, as for updates, completes exactly once and leaks no state.
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 6;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, ConcurrentOptions());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  Result<FlowId> materialize = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(materialize.ok()) << materialize.status().ToString();

  // The far end deletes one of its rows and gains a new one.
  Database& far = bed.node("n4")->database();
  const Tuple victim = generated.seeds.at("n4").at("d")[0];
  std::vector<Tuple> kept;
  for (const Tuple& row : far.Find("d")->rows()) {
    if (!(row == victim)) kept.push_back(row);
  }
  kept.push_back(Tuple{Value::Int(424242), Value::Int(1)});
  ASSERT_TRUE(far.Replace("d", kept).ok());

  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  const std::vector<std::string> kQueryNodes = {"n0", "n1", "n2", "n3"};
  std::vector<std::vector<Tuple>> pre;
  for (const std::string& name : kQueryNodes) {
    Result<std::vector<Tuple>> rows = bed.node(name)->LocalQuery(kQuery);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    pre.push_back(std::move(rows).value());
  }

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  std::vector<std::atomic<int>> done_counts(kQueryNodes.size());
  std::vector<FlowId> queries;
  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    std::atomic<int>* done = &done_counts[i];
    Result<FlowId> query = bed.node(kQueryNodes[i])->StartQuery(
        kQuery, [done](const QueryManager::QueryProgress& progress) {
          if (progress.done) done->fetch_add(1);
        });
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(query.value());
  }

  bed.network().Run();

  EXPECT_TRUE(bed.AllComplete(refresh.value()));
  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    Node* node = bed.node(kQueryNodes[i]);
    SCOPED_TRACE("query node " + kQueryNodes[i]);
    EXPECT_TRUE(node->QueryDone(queries[i]));
    EXPECT_EQ(done_counts[i].load(), 1);

    Result<std::vector<Tuple>> racing = node->QueryAnswers(queries[i]);
    ASSERT_TRUE(racing.ok()) << racing.status().ToString();
    Result<std::vector<Tuple>> post = node->LocalQuery(kQuery);
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    EXPECT_FALSE(node->database().Find("d")->Contains(victim));

    std::vector<Tuple> either = pre[i];
    either.insert(either.end(), post.value().begin(), post.value().end());
    EXPECT_TRUE(IsSubset(Sorted(std::move(racing).value()),
                         Sorted(std::move(either))))
        << "racing query answered with a row no store held";
  }

  ExpectNoLeakedFlows(bed);
}

TEST(ConcurrentFlowsTest, BackToBackUpdatesStayExactlyOnce) {
  // Two sequential updates on the threaded runtime: the second flow must
  // not resurrect or double-complete the first.
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 4;
  options.style = RuleStyle::kJoinCopy;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, ConcurrentOptions());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> first = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(bed.AllComplete(first.value()));
  NetworkInstance after_first = bed.Snapshot();

  Result<FlowId> second = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(bed.AllComplete(second.value()));

  // The network was already at its fixpoint: a repeat update changes
  // nothing, and the first flow stays complete.
  EXPECT_EQ(bed.Snapshot(), after_first);
  EXPECT_TRUE(bed.AllComplete(first.value()));
  ExpectNoLeakedFlows(bed);
}

TEST(ConcurrentFlowsTest, RacingFlowsLeaveAReplayableJournal) {
  // The same race with durable storage on: imports land in each node's
  // WAL from its delivery thread while queries copy the store. Killing
  // and restarting a node must bring back exactly the store it had, so
  // the journal must hold every import the race made.
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 6;
  options.style = RuleStyle::kJoinCopy;
  GeneratedNetwork generated = MakeChain(options);

  // Empty the per-node directories a previous run (or repeat) left.
  Testbed::Options testbed_options = ConcurrentOptions();
  testbed_options.storage.directory =
      ::testing::TempDir() + "codb_concurrent_flows_journal";
  for (int i = 0; i < options.nodes; ++i) {
    std::string dir =
        testbed_options.storage.directory + "/n" + std::to_string(i);
    Result<std::vector<std::string>> stale = ListDirectory(dir);
    if (!stale.ok()) continue;
    for (const std::string& file : stale.value()) {
      ASSERT_TRUE(RemoveFile(dir + "/" + file).ok());
    }
  }

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, testbed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  const std::vector<std::string> kQueryNodes = {"n1", "n2", "n3", "n4"};
  const auto seeded = bed.node("n1")->database().Snapshot();

  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  std::vector<FlowId> queries;
  for (const std::string& name : kQueryNodes) {
    Result<FlowId> query = bed.node(name)->StartQuery(kQuery);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(query.value());
  }

  bed.network().Run();

  EXPECT_TRUE(bed.AllComplete(update.value()));
  for (size_t i = 0; i < kQueryNodes.size(); ++i) {
    EXPECT_TRUE(bed.node(kQueryNodes[i])->QueryDone(queries[i]))
        << "query at " << kQueryNodes[i];
  }
  ExpectNoLeakedFlows(bed);
  ASSERT_NE(bed.node("n1")->database().Snapshot(), seeded)
      << "the race imported nothing into n1";

  for (const std::string& name : kQueryNodes) {
    SCOPED_TRACE("restarted node " + name);
    const auto before = bed.node(name)->database().Snapshot();
    ASSERT_TRUE(bed.KillNode(name).ok());
    Result<Node*> revived = bed.RestartNode(name);
    ASSERT_TRUE(revived.ok()) << revived.status().ToString();
    // No re-seeding happened: the store came back from checkpoint + WAL.
    EXPECT_EQ(revived.value()->database().Snapshot(), before);
  }
}

}  // namespace
}  // namespace codb
