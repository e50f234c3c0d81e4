// Tests of key constraints and local-inconsistency handling: detection,
// suppression of exports (paper principle (d): "local inconsistency does
// not propagate"), recovery after repair, and message batching.

#include <gtest/gtest.h>

#include "core/consistency.h"
#include "query/parser.h"
#include "workload/testbed.h"

namespace codb {
namespace {

TEST(ConsistencyTest, FindKeyViolationsDetectsDuplicates) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema(
                      "d", {{"k", ValueType::kInt},
                            {"v", ValueType::kInt}}))
                  .ok());
  db.Find("d")->Insert(Tuple{Value::Int(1), Value::Int(10)});
  db.Find("d")->Insert(Tuple{Value::Int(2), Value::Int(20)});

  KeyConstraint key{"d", {"k"}};
  EXPECT_TRUE(FindKeyViolations(db, {key}).empty());

  // Same key, different payload: violation.
  db.Find("d")->Insert(Tuple{Value::Int(1), Value::Int(99)});
  std::vector<std::string> violations = FindKeyViolations(db, {key});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("key d(k)"), std::string::npos);
}

TEST(ConsistencyTest, CompositeKeysAndBadConstraints) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema(
                      "d", {{"a", ValueType::kInt},
                            {"b", ValueType::kInt},
                            {"c", ValueType::kInt}}))
                  .ok());
  db.Find("d")->Insert(Tuple{Value::Int(1), Value::Int(1), Value::Int(1)});
  db.Find("d")->Insert(Tuple{Value::Int(1), Value::Int(2), Value::Int(2)});

  // (a,b) is a key here; (a) alone is not.
  EXPECT_TRUE(FindKeyViolations(db, {{"d", {"a", "b"}}}).empty());
  EXPECT_EQ(FindKeyViolations(db, {{"d", {"a"}}}).size(), 1u);

  // Misconfigured constraints count as violations.
  EXPECT_EQ(FindKeyViolations(db, {{"ghost", {"a"}}}).size(), 1u);
  EXPECT_EQ(FindKeyViolations(db, {{"d", {"zz"}}}).size(), 1u);
}

TEST(ConsistencyTest, ConfigParsesAndSerializesKeys) {
  const char* text =
      "node a\n"
      "  relation d(k:int, v:int)\n"
      "  key d(k)\n"
      "node b\n"
      "  relation d(k:int, v:int)\n"
      "rule r1 b <- a : d(K, V) :- d(K, V).\n";
  Result<NetworkConfig> config = NetworkConfig::Parse(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config.value().nodes()[0].keys.size(), 1u);
  EXPECT_EQ(config.value().nodes()[0].keys[0].relation, "d");
  EXPECT_EQ(config.value().nodes()[0].keys[0].columns,
            (std::vector<std::string>{"k"}));

  // Round trip.
  Result<NetworkConfig> again =
      NetworkConfig::Parse(config.value().Serialize());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().nodes()[0].keys.size(), 1u);

  // Key on an undeclared relation rejected.
  EXPECT_FALSE(NetworkConfig::Parse("node a\n  relation d(k:int)\n"
                                    "  key ghost(k)\n")
                   .ok());
  EXPECT_FALSE(NetworkConfig::Parse("node a\n  relation d(k:int)\n"
                                    "  key d(zz)\n")
                   .ok());
}

GeneratedNetwork KeyedChain() {
  const char* text =
      "node a\n"
      "  relation d(k:int, v:int)\n"
      "node b\n"
      "  relation d(k:int, v:int)\n"
      "  key d(k)\n"
      "node c\n"
      "  relation d(k:int, v:int)\n"
      "rule ab a <- b : d(K, V) :- d(K, V).\n"
      "rule bc b <- c : d(K, V) :- d(K, V).\n";
  Result<NetworkConfig> config = NetworkConfig::Parse(text);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  NetworkInstance seeds;
  seeds["a"]["d"] = {Tuple{Value::Int(1), Value::Int(10)}};
  seeds["b"]["d"] = {Tuple{Value::Int(2), Value::Int(20)}};
  seeds["c"]["d"] = {Tuple{Value::Int(3), Value::Int(30)}};
  return {std::move(config).value(), std::move(seeds)};
}

TEST(ConsistencyTest, InconsistentNodeExportsNothing) {
  GeneratedNetwork generated = KeyedChain();
  // Violate b's key: duplicate key 2 with different payloads.
  generated.seeds["b"]["d"].push_back(
      Tuple{Value::Int(2), Value::Int(99)});

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  EXPECT_FALSE(bed.node("b")->ConsistencyViolations().empty());
  EXPECT_TRUE(bed.node("a")->ConsistencyViolations().empty());

  Result<FlowId> update = bed.RunGlobalUpdate("a");
  ASSERT_TRUE(update.ok());
  // The update still terminates...
  EXPECT_TRUE(bed.AllComplete(update.value()));
  // ...but a receives nothing from b (b is inconsistent and exports
  // nothing, including c's data it would have relayed).
  EXPECT_EQ(bed.node("a")->database().Find("d")->size(), 1u);
  // b still imports from c (imports are unaffected): its 2 seed rows
  // plus c's imported row.
  EXPECT_EQ(bed.node("b")->database().Find("d")->size(), 3u);
}

TEST(ConsistencyTest, RepairRestoresExports) {
  GeneratedNetwork generated = KeyedChain();
  generated.seeds["b"]["d"].push_back(
      Tuple{Value::Int(2), Value::Int(99)});

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("a").ok());
  ASSERT_EQ(bed.node("a")->database().Find("d")->size(), 1u);

  // Repair b: drop the offending tuple (keep the relation a set again).
  Database& b_db = bed.node("b")->database();
  std::vector<Tuple> kept;
  for (const Tuple& t : b_db.Find("d")->rows()) {
    if (!(t == Tuple{Value::Int(2), Value::Int(99)})) kept.push_back(t);
  }
  ASSERT_TRUE(b_db.Replace("d", kept).ok());
  EXPECT_TRUE(bed.node("b")->ConsistencyViolations().empty());

  // A fresh update now migrates b's (and c's relayed) data.
  Result<FlowId> second = bed.RunGlobalUpdate("a");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(bed.node("a")->database().Find("d")->size(), 3u);
}

TEST(ConsistencyTest, InconsistentNodeServesNoQueries) {
  GeneratedNetwork generated = KeyedChain();
  generated.seeds["b"]["d"].push_back(
      Tuple{Value::Int(2), Value::Int(99)});

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> query = bed.node("a")->StartQuery(
      ParseQuery("q(K, V) :- d(K, V).").value());
  ASSERT_TRUE(query.ok());
  bed.network().Run();
  EXPECT_TRUE(bed.node("a")->QueryDone(query.value()));
  Result<std::vector<Tuple>> answers =
      bed.node("a")->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value().size(), 1u);  // a's own row only
}

TEST(BatchingTest, BatchesSplitMessagesButPreserveResults) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 25;
  GeneratedNetwork generated = MakeChain(options);

  auto run = [&](size_t batch) {
    Testbed::Options testbed_options;
    testbed_options.node.update.max_batch_tuples = batch;
    Result<std::unique_ptr<Testbed>> testbed =
        Testbed::Create(generated, testbed_options);
    EXPECT_TRUE(testbed.ok());
    Result<FlowId> update = testbed.value()->RunGlobalUpdate("n0");
    EXPECT_TRUE(update.ok());
    EXPECT_TRUE(testbed.value()->AllComplete(update.value()));
    return std::pair{testbed.value()->Snapshot(),
                     testbed.value()->network().stats().MessagesOfType(
                         MessageType::kUpdateData)};
  };

  auto [unbatched_instances, unbatched_messages] = run(0);
  auto [batched_instances, batched_messages] = run(10);

  EXPECT_EQ(unbatched_instances, batched_instances);
  // 25-tuple results split into 10-tuple batches -> more messages.
  EXPECT_GT(batched_messages, unbatched_messages);
}

}  // namespace
}  // namespace codb
