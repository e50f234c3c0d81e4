// End-to-end tests of distributed query answering: streaming results,
// simple-path labels, overlay isolation (query-time fetch does not mutate
// node databases), equivalence with querying after a global update, and
// the overlay's snapshot semantics (a query reads its nodes' stores as they
// were at its first touch, layered with what it fetched).

#include <gtest/gtest.h>

#include <algorithm>

#include "query/parser.h"
#include "test_util.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  Result<ConjunctiveQuery> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

int64_t GaugeOf(Node* node, const std::string& name) {
  return node->statistics().metrics().GetGauge(name)->value();
}

TEST(QueryAnsweringTest, FetchesRemoteDataWithoutMutatingStores) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Node* n0 = bed.node("n0");
  size_t before = n0->database().Find("d")->size();

  Result<FlowId> query = n0->StartQuery(Q("q(K, V) :- d(K, V)."));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  bed.network().Run();

  EXPECT_TRUE(n0->QueryDone(query.value()));
  Result<std::vector<Tuple>> answers = n0->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // All three nodes' d-tuples are visible through the chain.
  EXPECT_EQ(answers.value().size(), 12u);

  // But the local store was not touched (overlay isolation)...
  EXPECT_EQ(n0->database().Find("d")->size(), before);
  // ...on any node.
  EXPECT_EQ(bed.node("n1")->database().Find("d")->size(), 4u);
  EXPECT_EQ(bed.node("n2")->database().Find("d")->size(), 4u);
}

TEST(QueryAnsweringTest, StreamsResultsInWaves) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  int waves = 0;
  bool completed = false;
  Result<FlowId> query = bed.node("n0")->StartQuery(
      Q("q(K) :- d(K, V)."),
      [&](const QueryManager::QueryProgress& progress) {
        if (progress.done) {
          completed = true;
        } else if (progress.new_tuples > 0) {
          ++waves;
        }
      });
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  bed.network().Run();

  EXPECT_TRUE(completed);
  // n1's data and n2's data arrive in separate waves (one hop vs two).
  EXPECT_GE(waves, 2);
}

TEST(QueryAnsweringTest, AgreesWithQueryAfterGlobalUpdate) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  options.style = RuleStyle::kJoin;
  GeneratedNetwork generated = MakeTree(options);

  // Query-time answering on a cold network...
  Result<std::unique_ptr<Testbed>> cold_bed = Testbed::Create(generated);
  ASSERT_TRUE(cold_bed.ok());
  Result<FlowId> query =
      cold_bed.value()->node("n0")->StartQuery(Q("q(K, V) :- d(K, V)."));
  ASSERT_TRUE(query.ok());
  cold_bed.value()->network().Run();
  Result<std::vector<Tuple>> cold =
      cold_bed.value()->node("n0")->QueryAnswers(query.value());
  ASSERT_TRUE(cold.ok());

  // ...matches local answering after a global update.
  Result<std::unique_ptr<Testbed>> warm_bed = Testbed::Create(generated);
  ASSERT_TRUE(warm_bed.ok());
  Result<FlowId> update = warm_bed.value()->RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  Result<std::vector<Tuple>> warm =
      warm_bed.value()->node("n0")->LocalQuery(Q("q(K, V) :- d(K, V)."));
  ASSERT_TRUE(warm.ok());

  std::vector<Tuple> cold_sorted = cold.value();
  std::vector<Tuple> warm_sorted = warm.value();
  std::sort(cold_sorted.begin(), cold_sorted.end());
  std::sort(warm_sorted.begin(), warm_sorted.end());
  EXPECT_EQ(cold_sorted, warm_sorted);
}

TEST(QueryAnsweringTest, CertainAnswersDropNullWitnesses) {
  // A projection rule invents null name-witnesses; the certain answers
  // keep only the null-free rows.
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 3;
  options.style = RuleStyle::kProject;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> query =
      bed.node("n0")->StartQuery(Q("q(K, V) :- d(K, V)."));
  ASSERT_TRUE(query.ok());
  bed.network().Run();

  Result<std::vector<Tuple>> all =
      bed.node("n0")->QueryAnswers(query.value());
  Result<std::vector<Tuple>> certain =
      bed.node("n0")->CertainQueryAnswers(query.value());
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(certain.ok());
  EXPECT_EQ(all.value().size(), 6u);      // 3 own + 3 imported-with-null
  EXPECT_EQ(certain.value().size(), 3u);  // own rows only
  for (const Tuple& t : certain.value()) {
    EXPECT_FALSE(t.HasNull());
  }
}

TEST(QueryAnsweringTest, QueryOnRingTerminates) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> query = bed.node("n0")->StartQuery(Q("q(K) :- d(K, V)."));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  bed.network().Run();

  EXPECT_TRUE(bed.node("n0")->QueryDone(query.value()));
  Result<std::vector<Tuple>> answers =
      bed.node("n0")->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok());
  // All four nodes' keys reachable around the ring.
  EXPECT_EQ(answers.value().size(), 8u);
}

TEST(QueryAnsweringTest, LocalQueryNeedsNoNetwork) {
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  uint64_t messages_before = bed.network().stats().total_messages();
  Result<std::vector<Tuple>> local =
      bed.node("n0")->LocalQuery(Q("q(K, V) :- d(K, V)."));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value().size(), 3u);  // own data only
  EXPECT_EQ(bed.network().stats().total_messages(), messages_before);
}

TEST(QuerySnapshotTest, MaterializedOriginKeepsAnEmptyLayer) {
  // After a global update the origin already holds every row the query
  // fetches: each arriving tuple is found in the snapshot, none is layered.
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());

  Node* n0 = bed.node("n0");
  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  Result<FlowId> query = n0->StartQuery(kQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(GaugeOf(n0, "query.states"), 1);
  bed.network().Run();
  ASSERT_TRUE(n0->QueryDone(query.value()));

  EXPECT_GT(n0->statistics().metrics().GetCounter("query.results_in")->value(),
            0u);
  EXPECT_EQ(GaugeOf(n0, "query.layer_rows"), 0);
  Result<std::vector<Tuple>> answers = n0->QueryAnswers(query.value());
  Result<std::vector<Tuple>> local = n0->LocalQuery(kQuery);
  ASSERT_TRUE(answers.ok());
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(Sorted(answers.value()), Sorted(local.value()));
  EXPECT_EQ(answers.value().size(), 20u);
  // Serving peers dropped their states with the done-flood; the origin
  // keeps its owned one.
  EXPECT_EQ(GaugeOf(bed.node("n1"), "query.states"), 0);
  EXPECT_EQ(GaugeOf(n0, "query.states"), 1);
}

TEST(QuerySnapshotTest, ColdQueryLayersWhatItFetched) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Node* n0 = bed.node("n0");
  Result<FlowId> query = n0->StartQuery(Q("q(K, V) :- d(K, V)."));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  bed.network().Run();
  // n1's and n2's rows, fetched into n0's layer: nothing in n0's store.
  EXPECT_EQ(GaugeOf(n0, "query.layer_rows"), 8);
  EXPECT_EQ(n0->database().Find("d")->size(), 4u);
  EXPECT_EQ(GaugeOf(bed.node("n1"), "query.layer_rows"), 0);
}

TEST(QuerySnapshotTest, RowsInsertedAfterStartAreNotAnswered) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Node* n0 = bed.node("n0");
  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  Result<FlowId> query = n0->StartQuery(kQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const Tuple late{Value::Int(987654), Value::Int(1)};
  ASSERT_TRUE(n0->InsertLocal("d", {late}).ok());
  bed.network().Run();

  Result<std::vector<Tuple>> answers = n0->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value().size(), 12u);
  EXPECT_EQ(std::count(answers.value().begin(), answers.value().end(), late),
            0);
  // The store has the row; a query started now answers it.
  EXPECT_TRUE(n0->database().Find("d")->Contains(late));
  Result<FlowId> next = n0->StartQuery(kQuery);
  ASSERT_TRUE(next.ok());
  bed.network().Run();
  Result<std::vector<Tuple>> next_answers = n0->QueryAnswers(next.value());
  ASSERT_TRUE(next_answers.ok());
  EXPECT_EQ(next_answers.value().size(), 13u);
}

TEST(QuerySnapshotTest, QueryOpenedBeforeARefreshKeepsItsRows) {
  // n0 holds n1's and n2's rows after an update. n2 deletes one at its
  // source; a refresh then drops it everywhere, replacing n0's relation.
  // A query opened at n0 before that refresh still answers from the rows
  // n0 held when it opened, the deleted one included.
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());

  Node* n0 = bed.node("n0");
  const ConjunctiveQuery kQuery = Q("q(K, V) :- d(K, V).");
  Result<std::vector<Tuple>> pre_refresh = n0->LocalQuery(kQuery);
  ASSERT_TRUE(pre_refresh.ok());
  ASSERT_EQ(pre_refresh.value().size(), 12u);
  const Tuple victim = generated.seeds.at("n2").at("d")[0];
  test::DeleteTuple(bed.node("n2")->database(), "d", victim);

  Result<FlowId> query = n0->StartQuery(kQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Result<FlowId> refresh = n0->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  bed.network().Run();
  ASSERT_TRUE(bed.AllComplete(refresh.value()));
  ASSERT_TRUE(n0->QueryDone(query.value()));

  EXPECT_FALSE(n0->database().Find("d")->Contains(victim));
  EXPECT_EQ(n0->database().Find("d")->size(), 11u);
  Result<std::vector<Tuple>> answers = n0->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(Sorted(answers.value()), Sorted(pre_refresh.value()));
}

TEST(QueryAnsweringTest, RuleAskedUnderTwoLabelsShipsEachFrontierOnce) {
  // A diamond a <- {b, c} <- y above x: the query reaches y along two
  // paths, so y asks x for rule yx under two labels.
  GeneratedNetwork generated;
  Result<NetworkConfig> config = NetworkConfig::Parse(R"(
node a
  relation d(k:int)
node b
  relation d(k:int)
node c
  relation d(k:int)
node y
  relation d(k:int)
node x
  relation d(k:int)
rule ab a <- b : d(K) :- d(K).
rule ac a <- c : d(K) :- d(K).
rule by b <- y : d(K) :- d(K).
rule cy c <- y : d(K) :- d(K).
rule yx y <- x : d(K) :- d(K).
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  generated.config = std::move(config).value();
  constexpr int kRows = 50;
  for (int i = 0; i < kRows; ++i) {
    generated.seeds["x"]["d"].push_back(Tuple{Value::Int(i)});
  }
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> query = bed.node("a")->StartQuery(Q("q(K) :- d(K)."));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  bed.network().Run();
  ASSERT_TRUE(bed.node("a")->QueryDone(query.value()));
  Result<std::vector<Tuple>> answers =
      bed.node("a")->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers.value().size(), static_cast<size_t>(kRows));

  // Both labels reached x, yet every frontier left x once, in one message.
  EXPECT_EQ(bed.node("x")->statistics().metrics().GetCounter(
                "query.requests_in")->value(),
            2u);
  const UpdateReport* served =
      bed.node("x")->statistics().FindReport(query.value());
  ASSERT_NE(served, nullptr);
  ASSERT_EQ(served->sent_per_rule.count("yx"), 1u);
  EXPECT_EQ(served->sent_per_rule.at("yx").messages, 1u);
  EXPECT_EQ(served->sent_per_rule.at("yx").tuples,
            static_cast<uint64_t>(kRows));
}

TEST(QueryAnsweringTest, RejectsMalformedQueries) {
  WorkloadOptions options;
  options.nodes = 2;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());

  // Unknown relation.
  Result<FlowId> bad =
      testbed.value()->node("n0")->StartQuery(Q("q(X) :- nope(X)."));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  // Existential head variable.
  Result<FlowId> unsafe =
      testbed.value()->node("n0")->StartQuery(Q("q(X, Y) :- d(X, V)."));
  EXPECT_FALSE(unsafe.ok());
  EXPECT_EQ(unsafe.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace codb
