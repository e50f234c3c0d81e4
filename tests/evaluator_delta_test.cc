// Dedicated coverage for semi-naive delta evaluation in the cases the
// update fixpoint actually produces: rule bodies mentioning the delta
// relation in two or more atoms (the per-occurrence union path of
// CompiledQuery::EvaluateDelta) and joins whose keys are marked nulls.
// Also the differential check of RelationView: a query overlay (a store
// prefix plus a layer) must evaluate exactly like a Database holding
// those rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "query/evaluator.h"
#include "query/parser.h"
#include "relation/database.h"
#include "util/random.h"

namespace codb {
namespace {

class EvaluatorDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateRelation(RelationSchema(
                        "r", {{"a", ValueType::kInt},
                              {"b", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(db_.CreateRelation(RelationSchema(
                        "link", {{"x", ValueType::kInt},
                                 {"y", ValueType::kInt}}))
                    .ok());
    schema_ = db_.Schema();
  }

  CompiledQuery Compile(const std::string& text,
                        std::vector<std::string> output) {
    Result<ConjunctiveQuery> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    Result<CompiledQuery> compiled =
        CompiledQuery::Compile(q.value(), schema_, std::move(output));
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return std::move(compiled).value();
  }

  void InsertR(int64_t a, int64_t b) {
    db_.Find("r")->Insert(Tuple{Value::Int(a), Value::Int(b)});
  }

  Database db_;
  DatabaseSchema schema_;
};

// Reference semantics: EvaluateDelta must return exactly the frontiers of
// derivations that use at least one delta tuple, i.e. it must cover
// eval(after) \ eval(before) and stay within eval(after).
TEST_F(EvaluatorDeltaTest, ThreeOccurrenceDeltaMatchesFullEvalDifference) {
  CompiledQuery q =
      Compile("q(A, D) :- r(A, B), r(B, C), r(C, D).", {"A", "D"});

  InsertR(1, 2);
  InsertR(2, 3);
  InsertR(3, 4);
  std::vector<Tuple> before = q.Evaluate(db_);

  // The delta extends existing chains in front, in the middle, and at the
  // back, so every occurrence position contributes derivations.
  std::vector<Tuple> delta = {Tuple{Value::Int(0), Value::Int(1)},
                              Tuple{Value::Int(4), Value::Int(5)}};
  for (const Tuple& t : delta) db_.Find("r")->Insert(t);
  std::vector<Tuple> after = q.Evaluate(db_);

  std::vector<Tuple> rows = q.EvaluateDelta(db_, "r", delta);

  std::set<Tuple> delta_set(rows.begin(), rows.end());
  std::set<Tuple> before_set(before.begin(), before.end());
  std::set<Tuple> after_set(after.begin(), after.end());

  // No duplicates leak out of the per-occurrence union.
  EXPECT_EQ(delta_set.size(), rows.size());
  for (const Tuple& t : after) {
    if (before_set.count(t) == 0) {
      EXPECT_TRUE(delta_set.count(t) > 0)
          << "missing new derivation " << t.ToString();
    }
  }
  for (const Tuple& t : rows) {
    EXPECT_TRUE(after_set.count(t) > 0)
        << "derivation not in full evaluation " << t.ToString();
  }
}

// One delta tuple serving two occurrences at once (a self-loop) must yield
// its frontier exactly once despite both per-occurrence passes finding it.
TEST_F(EvaluatorDeltaTest, SelfLoopDedupedAcrossOccurrencePasses) {
  CompiledQuery q = Compile("q(A, C) :- r(A, B), r(B, C).", {"A", "C"});
  Tuple loop{Value::Int(7), Value::Int(7)};
  db_.Find("r")->Insert(loop);

  std::vector<Tuple> rows = q.EvaluateDelta(db_, "r", {loop});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (Tuple{Value::Int(7), Value::Int(7)}));
}

// Marked nulls are first-class join keys: two link tuples sharing a null
// label must join, distinct labels must not — also through the delta path.
TEST_F(EvaluatorDeltaTest, MarkedNullJoinKeysInDelta) {
  CompiledQuery q =
      Compile("q(X, Z) :- link(X, Y), link(Y, Z).", {"X", "Z"});

  Value witness = Value::Null(3, 41);
  Value other = Value::Null(3, 42);
  db_.Find("link")->Insert(Tuple{Value::Int(1), witness});

  // Delta joins with the stored tuple through the shared witness; the
  // tuple with a different label must not contribute.
  std::vector<Tuple> delta = {Tuple{witness, Value::Int(9)},
                              Tuple{other, Value::Int(666)}};
  for (const Tuple& t : delta) db_.Find("link")->Insert(t);

  std::vector<Tuple> rows = q.EvaluateDelta(db_, "link", delta);
  std::sort(rows.begin(), rows.end());

  // (1, 9) via the shared witness. No derivation may cross labels.
  ASSERT_TRUE(std::find(rows.begin(), rows.end(),
                        (Tuple{Value::Int(1), Value::Int(9)})) != rows.end());
  for (const Tuple& t : rows) {
    EXPECT_FALSE(t == (Tuple{Value::Int(1), Value::Int(666)}));
  }
}

// Both at once: the delta relation occurs twice AND the join key is a
// marked null minted by a remote peer — the exact shape a propagated
// existential produces in the global-update fixpoint.
TEST_F(EvaluatorDeltaTest, RepeatedOccurrenceWithNullKeysAndFrontierNulls) {
  CompiledQuery q =
      Compile("q(X, Z) :- link(X, Y), link(Y, Z).", {"X", "Z"});

  Value n1 = Value::Null(5, 1);
  Value n2 = Value::Null(5, 2);
  // Chain: n1 -> n2 -> 3 where every hop arrives in the same delta batch.
  std::vector<Tuple> delta = {Tuple{n1, n2}, Tuple{n2, Value::Int(3)}};
  for (const Tuple& t : delta) db_.Find("link")->Insert(t);

  std::vector<Tuple> rows = q.EvaluateDelta(db_, "link", delta);
  // The two-hop derivation joins two delta tuples on the null key n2 and
  // carries the null n1 out through the frontier.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (Tuple{n1, Value::Int(3)}));

  // An empty delta stays empty even with repeated occurrences.
  EXPECT_TRUE(q.EvaluateDelta(db_, "link", {}).empty());
}

// Edge cases surfaced by the incremental-update battery ---------------------

// A batch whose rows connect to the store on both sides: the delta must
// join delta←existing and existing←delta without double-counting the
// all-delta derivation both passes can reach.
TEST_F(EvaluatorDeltaTest, DeltaExtendsExistingChainsBothDirections) {
  CompiledQuery q = Compile("q(A, C) :- r(A, B), r(B, C).", {"A", "C"});
  InsertR(1, 2);  // pre-existing middle link

  std::vector<Tuple> delta = {Tuple{Value::Int(0), Value::Int(1)},
                              Tuple{Value::Int(2), Value::Int(3)}};
  for (const Tuple& t : delta) db_.Find("r")->Insert(t);

  std::vector<Tuple> rows = q.EvaluateDelta(db_, "r", delta);
  std::sort(rows.begin(), rows.end());
  std::vector<Tuple> expected = {
      Tuple{Value::Int(0), Value::Int(2)},   // delta ⋈ existing
      Tuple{Value::Int(1), Value::Int(3)}};  // existing ⋈ delta
  EXPECT_EQ(rows, expected);
}

// Multi-relation body: a delta for one relation must probe the other
// relation's *entire* store, and a delta for the other relation must do
// the converse — the union covers the full difference.
TEST_F(EvaluatorDeltaTest, MultiRelationBodyDeltaPerRelation) {
  CompiledQuery q = Compile("q(A, Y) :- r(A, B), link(B, Y).", {"A", "Y"});
  InsertR(1, 10);
  db_.Find("link")->Insert(Tuple{Value::Int(10), Value::Int(100)});
  std::vector<Tuple> before = q.Evaluate(db_);

  // One delta per relation, landing in the same batch of an update.
  std::vector<Tuple> delta_r = {Tuple{Value::Int(2), Value::Int(20)}};
  std::vector<Tuple> delta_link = {Tuple{Value::Int(20), Value::Int(200)}};
  db_.Find("r")->Insert(delta_r[0]);
  db_.Find("link")->Insert(delta_link[0]);
  std::vector<Tuple> after = q.Evaluate(db_);

  std::set<Tuple> covered;
  for (const Tuple& t : q.EvaluateDelta(db_, "r", delta_r)) covered.insert(t);
  for (const Tuple& t : q.EvaluateDelta(db_, "link", delta_link)) {
    covered.insert(t);
  }
  std::set<Tuple> before_set(before.begin(), before.end());
  std::set<Tuple> after_set(after.begin(), after.end());
  for (const Tuple& t : after_set) {
    if (before_set.count(t) == 0) {
      EXPECT_TRUE(covered.count(t) > 0)
          << "missing new derivation " << t.ToString();
    }
  }
  for (const Tuple& t : covered) {
    EXPECT_TRUE(after_set.count(t) > 0)
        << "derivation not in full evaluation " << t.ToString();
  }
  // The r-delta alone reaches the new link row too (it is in the store by
  // the time the delta evaluates), so (2, 200) must be covered.
  EXPECT_TRUE(covered.count(Tuple{Value::Int(2), Value::Int(200)}) > 0);
}

// A duplicated row inside one delta batch (a wrapper that failed to dedup,
// or a retransmitted shipment applied twice) must not duplicate frontiers.
TEST_F(EvaluatorDeltaTest, DuplicateDeltaRowsYieldEachFrontierOnce) {
  CompiledQuery q = Compile("q(A, C) :- r(A, B), r(B, C).", {"A", "C"});
  InsertR(1, 2);
  Tuple row{Value::Int(2), Value::Int(3)};
  db_.Find("r")->Insert(row);

  std::vector<Tuple> rows = q.EvaluateDelta(db_, "r", {row, row});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (Tuple{Value::Int(1), Value::Int(3)}));
}

// A delta against a relation the body never mentions contributes nothing —
// the guard the update manager relies on when it routes a multi-relation
// batch through rules that reference only part of it.
TEST_F(EvaluatorDeltaTest, DeltaForUnreferencedRelationIsEmpty) {
  CompiledQuery q = Compile("q(A, B) :- r(A, B).", {"A", "B"});
  InsertR(1, 2);
  std::vector<Tuple> delta = {Tuple{Value::Int(5), Value::Int(6)}};
  db_.Find("link")->Insert(delta[0]);
  EXPECT_TRUE(q.EvaluateDelta(db_, "link", delta).empty());
}

// RelationView differential: random relations cut at random points. The
// store gets a random prefix of each relation's rows, an Overlay opens on
// it, and the store then keeps growing (rows past the cut, which the
// overlay must not see, some of them matching later probes). The overlay's
// layer takes random rows, some already in the prefix (dropped), some past
// the cut (kept). A Database holding exactly prefix + layer is the
// reference: scans, single-column probes and composite probes, full and
// delta, must give it the same frontiers.
TEST(RelationViewDifferentialTest, OverlayMatchesMaterializedDatabase) {
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      kQueries = {
          {"q(X, Y) :- r(X, Y).", {"X", "Y"}},                 // scan
          {"q(X, Z) :- r(X, Y), s(Y, Z).", {"X", "Z"}},        // column probe
          {"q(X, Y) :- r(X, Y), s(X, Y).", {"X", "Y"}},        // composite
          {"q(Y) :- r(2, Y), s(Y, W), r(W, 3).", {"Y"}},       // constants
          {"q(X, Z) :- r(X, Y), r(Y, Z), s(Z, X).", {"X", "Z"}},  // self-join
      };
  auto schema_of = [](const std::string& name) {
    return RelationSchema(name, {{"a", ValueType::kInt},
                                 {"b", ValueType::kInt}});
  };
  Rng rng(20260418);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Database store;
    Database reference;
    for (const char* name : {"r", "s"}) {
      ASSERT_TRUE(store.CreateRelation(schema_of(name)).ok());
      ASSERT_TRUE(reference.CreateRelation(schema_of(name)).ok());
    }
    const int64_t range = rng.UniformInt(2, 6);
    auto random_rows = [&](int count) {
      std::vector<Tuple> rows;
      for (int i = 0; i < count; ++i) {
        rows.push_back(Tuple{Value::Int(rng.UniformInt(0, range)),
                             Value::Int(rng.UniformInt(0, range))});
      }
      return rows;
    };
    // The prefix; sometimes the store's indexes exist before the cut.
    std::map<std::string, std::vector<Tuple>> late;
    for (const char* name : {"r", "s"}) {
      for (const Tuple& row : random_rows(static_cast<int>(
               rng.UniformInt(0, 25)))) {
        store.Find(name)->Insert(row);
        reference.Find(name)->Insert(row);
      }
      if (rng.Chance(0.5)) store.Find(name)->Probe(1, Value::Int(0));
      if (rng.Chance(0.5)) {
        store.Find(name)->ProbeComposite({0, 1},
                                         {Value::Int(0), Value::Int(0)});
      }
      late[name] = random_rows(static_cast<int>(rng.UniformInt(0, 15)));
    }
    Overlay overlay(store);
    for (const char* name : {"r", "s"}) {
      for (const Tuple& row : late[name]) store.Find(name)->Insert(row);
    }

    // The layer: fresh random rows plus some of the store's late rows.
    std::map<std::string, std::vector<Tuple>> delta;
    for (const char* name : {"r", "s"}) {
      std::vector<Tuple> fetched =
          random_rows(static_cast<int>(rng.UniformInt(0, 15)));
      for (const Tuple& row : late[name]) {
        if (rng.Chance(0.5)) fetched.push_back(row);
      }
      for (const Tuple& row : fetched) {
        Result<bool> added = overlay.Insert(name, row);
        ASSERT_TRUE(added.ok());
        EXPECT_EQ(added.value(), reference.Find(name)->Insert(row));
        if (added.value()) delta[name].push_back(row);
      }
    }
    for (const char* name : {"r", "s"}) {
      EXPECT_EQ(overlay.View(name).size(), reference.Find(name)->size());
    }

    for (const auto& [text, output] : kQueries) {
      SCOPED_TRACE(text);
      Result<ConjunctiveQuery> parsed = ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      Result<CompiledQuery> compiled =
          CompiledQuery::Compile(parsed.value(), reference.Schema(), output);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      const CompiledQuery& q = compiled.value();
      auto sorted = [](std::vector<Tuple> rows) {
        std::sort(rows.begin(), rows.end());
        return rows;
      };
      EXPECT_EQ(sorted(q.Evaluate(overlay)), sorted(q.Evaluate(reference)));
      for (const auto& [relation, rows] : delta) {
        EXPECT_EQ(sorted(q.EvaluateDelta(overlay, relation, rows)),
                  sorted(q.EvaluateDelta(reference, relation, rows)))
            << "delta over " << relation;
      }
    }
  }
}

}  // namespace
}  // namespace codb
