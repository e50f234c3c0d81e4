// Unit tests for relations, databases, and the table printer.

#include <gtest/gtest.h>

#include "relation/database.h"
#include "relation/printer.h"
#include "relation/relation.h"

namespace codb {
namespace {

RelationSchema TwoIntSchema(const std::string& name) {
  return RelationSchema(name, {{"a", ValueType::kInt},
                               {"b", ValueType::kInt}});
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(TwoIntSchema("r"));
  EXPECT_TRUE(r.Insert(Tuple{Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(r.Insert(Tuple{Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(r.Insert(Tuple{Value::Int(1), Value::Int(3)}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Tuple{Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(r.Contains(Tuple{Value::Int(9), Value::Int(9)}));
}

TEST(RelationTest, InsertNewReturnsOnlyFreshTuples) {
  Relation r(TwoIntSchema("r"));
  r.Insert(Tuple{Value::Int(1), Value::Int(1)});
  std::vector<Tuple> batch = {
      Tuple{Value::Int(1), Value::Int(1)},  // duplicate
      Tuple{Value::Int(2), Value::Int(2)},
      Tuple{Value::Int(2), Value::Int(2)},  // duplicate within batch
      Tuple{Value::Int(3), Value::Int(3)},
  };
  std::vector<Tuple> fresh = r.InsertNew(batch);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0], (Tuple{Value::Int(2), Value::Int(2)}));
  EXPECT_EQ(fresh[1], (Tuple{Value::Int(3), Value::Int(3)}));
  EXPECT_EQ(r.size(), 3u);
}

TEST(RelationTest, DifferenceDoesNotMutate) {
  Relation r(TwoIntSchema("r"));
  r.Insert(Tuple{Value::Int(1), Value::Int(1)});
  std::vector<Tuple> batch = {Tuple{Value::Int(1), Value::Int(1)},
                              Tuple{Value::Int(2), Value::Int(2)}};
  std::vector<Tuple> diff = r.Difference(batch);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], (Tuple{Value::Int(2), Value::Int(2)}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, ProbeFindsMatchingRows) {
  Relation r(TwoIntSchema("r"));
  for (int i = 0; i < 10; ++i) {
    r.Insert(Tuple{Value::Int(i % 3), Value::Int(i)});
  }
  const auto& bucket = r.Probe(0, Value::Int(1));
  EXPECT_EQ(bucket.size(), 3u);  // i = 1, 4, 7
  for (uint32_t row : bucket) {
    EXPECT_EQ(r.rows()[row].at(0), Value::Int(1));
  }
}

TEST(RelationTest, ProbeIndexMaintainedAcrossInserts) {
  // Inserts after the index is built must show up in later probes without
  // a rebuild (the index is appended to, never invalidated).
  Relation r(TwoIntSchema("r"));
  r.Insert(Tuple{Value::Int(1), Value::Int(10)});
  EXPECT_EQ(r.Probe(0, Value::Int(1)).size(), 1u);
  r.Insert(Tuple{Value::Int(1), Value::Int(20)});
  EXPECT_EQ(r.Probe(0, Value::Int(1)).size(), 2u);
  EXPECT_EQ(r.Probe(1, Value::Int(20)).size(), 1u);
}

TEST(RelationTest, ProbeBucketsSurviveRowStorageGrowth) {
  // Regression test for the dangling-pointer hazard of tuple-pointer
  // buckets: hold a bucket reference, then insert enough rows to grow row
  // storage across several segments, and dereference the bucket through
  // stable row positions. Exercised under ASan in CI.
  Relation r(TwoIntSchema("r"));
  r.Insert(Tuple{Value::Int(0), Value::Int(-1)});
  const auto& bucket = r.Probe(0, Value::Int(0));
  ASSERT_EQ(bucket.size(), 1u);
  for (int i = 1; i <= 1000; ++i) {
    r.Insert(Tuple{Value::Int(i % 7), Value::Int(i)});
  }
  // The same reference is still valid and now sees every later insert with
  // key 0 (i = 7, 14, ..., 994).
  EXPECT_EQ(bucket.size(), 1u + 142u);
  for (uint32_t row : bucket) {
    EXPECT_EQ(r.rows()[row].at(0), Value::Int(0));
  }
}

TEST(RelationTest, ProbeCompositeMatchesAllColumns) {
  Relation r(TwoIntSchema("r"));
  for (int i = 0; i < 12; ++i) {
    r.Insert(Tuple{Value::Int(i % 2), Value::Int(i)});
  }
  const auto& bucket =
      r.ProbeComposite({0, 1}, {Value::Int(1), Value::Int(5)});
  ASSERT_EQ(bucket.size(), 1u);  // exactly the row (1, 5)
  for (uint32_t row : bucket) {
    EXPECT_EQ(r.rows()[row].at(0), Value::Int(1));
    EXPECT_EQ(r.rows()[row].at(1), Value::Int(5));
  }
  EXPECT_TRUE(
      r.ProbeComposite({0, 1}, {Value::Int(0), Value::Int(5)}).empty());
}

TEST(RelationTest, ProbeCompositeMaintainedAcrossInserts) {
  Relation r(TwoIntSchema("r"));
  r.Insert(Tuple{Value::Int(1), Value::Int(2)});
  EXPECT_EQ(
      r.ProbeComposite({0, 1}, {Value::Int(1), Value::Int(2)}).size(), 1u);
  // New rows flow into the already-built composite index too.
  r.Insert(Tuple{Value::Int(1), Value::Int(3)});
  r.Insert(Tuple{Value::Int(2), Value::Int(2)});
  EXPECT_EQ(
      r.ProbeComposite({0, 1}, {Value::Int(1), Value::Int(2)}).size(), 1u);
  EXPECT_EQ(
      r.ProbeComposite({0, 1}, {Value::Int(1), Value::Int(3)}).size(), 1u);
  // Single-column probes agree with the composite view.
  EXPECT_EQ(r.Probe(0, Value::Int(1)).size(), 2u);
  EXPECT_EQ(r.Probe(1, Value::Int(2)).size(), 2u);
}

TEST(RelationTest, RowOfFindsPositions) {
  Relation r(TwoIntSchema("r"));
  r.Insert(Tuple{Value::Int(1), Value::Int(1)});
  r.Insert(Tuple{Value::Int(2), Value::Int(2)});
  EXPECT_EQ(r.RowOf(Tuple{Value::Int(1), Value::Int(1)}), 0u);
  EXPECT_EQ(r.RowOf(Tuple{Value::Int(2), Value::Int(2)}), 1u);
  EXPECT_EQ(r.RowOf(Tuple{Value::Int(3), Value::Int(3)}), Relation::kNoRow);
}

TEST(RowStoreTest, GrowthMovesNoRow) {
  // Rows 15/16 and 47/48 straddle the first segment boundaries; 3000 rows
  // reach segment 7 (rows 2032..4079).
  RowStore store;
  std::vector<const Tuple*> held;
  for (int i = 0; i < 3000; ++i) {
    store.push_back(Tuple{Value::Int(i), Value::Int(-i)});
    if (i == 0 || i == 15 || i == 16 || i == 47 || i == 48 || i == 1000) {
      held.push_back(&store[static_cast<size_t>(i)]);
    }
  }
  ASSERT_EQ(store.size(), 3000u);
  EXPECT_EQ(held[0], &store[0]);
  EXPECT_EQ(held[1], &store[15]);
  EXPECT_EQ(held[2], &store[16]);
  EXPECT_EQ(held[3], &store[47]);
  EXPECT_EQ(held[4], &store[48]);
  EXPECT_EQ(held[5], &store[1000]);
  EXPECT_EQ(*held[5], (Tuple{Value::Int(1000), Value::Int(-1000)}));
  int expected = 0;
  for (const Tuple& row : store) {
    EXPECT_EQ(row.at(0), Value::Int(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 3000);
  EXPECT_EQ(store.back(), (Tuple{Value::Int(2999), Value::Int(-2999)}));
}

TEST(RowStoreTest, ForEachVisitsThePrefixInOrder) {
  RowStore store;
  for (int i = 0; i < 100; ++i) store.push_back(Tuple{Value::Int(i)});
  for (size_t end : {size_t{0}, size_t{1}, size_t{16}, size_t{17},
                     size_t{48}, size_t{100}}) {
    std::vector<int64_t> seen;
    store.ForEach(end, [&](const Tuple& row) {
      seen.push_back(row.at(0).AsInt());
    });
    ASSERT_EQ(seen.size(), end);
    for (size_t i = 0; i < end; ++i) {
      EXPECT_EQ(seen[i], static_cast<int64_t>(i));
    }
  }
}

TEST(RowStoreTest, ClearDestroysEveryRowAndStartsOver) {
  // Wider than Tuple::kInlineCapacity, so every row owns heap memory: ASan
  // sees a leak or double free if Clear or the destructor miscounts.
  auto wide = [](int64_t key) {
    return Tuple{Value::Int(key), Value::Int(1), Value::Int(2),
                 Value::Int(3), Value::Int(4), Value::Int(5)};
  };
  RowStore store;
  for (int i = 0; i < 49; ++i) store.push_back(wide(i));  // 4 segments
  store.Clear();
  EXPECT_TRUE(store.empty());
  store.push_back(wide(100));
  store.push_back(wide(101));
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store[0], wide(100));
  EXPECT_EQ(store.back(), wide(101));
}

TEST(DatabaseTest, ReplaceLeavesHoldersTheOldRows) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(TwoIntSchema("r")).ok());
  Relation* r = db.Find("r");
  r->Insert(Tuple{Value::Int(1), Value::Int(1)});
  r->Insert(Tuple{Value::Int(1), Value::Int(2)});
  r->Probe(0, Value::Int(1));
  r->ProbeComposite({0, 1}, {Value::Int(1), Value::Int(1)});
  std::shared_ptr<const Relation> held = db.Share("r");

  ASSERT_TRUE(db.Replace("r", {Tuple{Value::Int(1), Value::Int(2)},
                               Tuple{Value::Int(3), Value::Int(3)}})
                  .ok());
  EXPECT_FALSE(db.Replace("missing", {}).ok());

  // The holder of the old relation still reads the old rows and indexes.
  ASSERT_EQ(held->size(), 2u);
  EXPECT_TRUE(held->Contains(Tuple{Value::Int(1), Value::Int(1)}));
  EXPECT_FALSE(held->Contains(Tuple{Value::Int(3), Value::Int(3)}));
  EXPECT_EQ(held->Probe(0, Value::Int(1)).size(), 2u);

  // The store's new relation holds the new rows, and its indexes are
  // built afresh on first probe (the old buckets do not carry over).
  const Relation* fresh = db.Find("r");
  ASSERT_NE(fresh, held.get());
  EXPECT_EQ(fresh->size(), 2u);
  EXPECT_FALSE(fresh->Contains(Tuple{Value::Int(1), Value::Int(1)}));
  const Relation::Bucket bucket = fresh->Probe(0, Value::Int(1));
  ASSERT_EQ(bucket.size(), 1u);
  EXPECT_EQ(fresh->rows()[*bucket.begin()],
            (Tuple{Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(
      fresh->ProbeComposite({0, 1}, {Value::Int(1), Value::Int(1)}).empty());
  EXPECT_EQ(
      fresh->ProbeComposite({0, 1}, {Value::Int(3), Value::Int(3)}).size(),
      1u);
}

TEST(OverlayTest, SnapshotPlusLayer) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(TwoIntSchema("r")).ok());
  db.Find("r")->Insert(Tuple{Value::Int(1), Value::Int(1)});
  Overlay overlay(db);

  // Rows the store gains after opening stay out of the snapshot...
  const Tuple late{Value::Int(2), Value::Int(2)};
  db.Find("r")->Insert(late);
  EXPECT_EQ(overlay.View("r").size(), 1u);
  // ...so fetching one puts it in the layer; a snapshot row is not new.
  EXPECT_TRUE(overlay.Insert("r", late).value());
  EXPECT_FALSE(
      overlay.Insert("r", Tuple{Value::Int(1), Value::Int(1)}).value());
  EXPECT_FALSE(overlay.Insert("r", late).value());
  EXPECT_FALSE(overlay.Insert("missing", Tuple{Value::Int(1)}).ok());
  EXPECT_EQ(overlay.LayerRows(), 1u);
  EXPECT_EQ(overlay.View("r").size(), 2u);
  EXPECT_FALSE(overlay.View("missing").exists());

  // A Replace in the store leaves the overlay reading what it read.
  ASSERT_TRUE(db.Replace("r", {}).ok());
  RelationView view = overlay.View("r");
  std::vector<Tuple> seen;
  view.Scan([&](const Tuple& t) { seen.push_back(t); });
  EXPECT_EQ(seen,
            (std::vector<Tuple>{Tuple{Value::Int(1), Value::Int(1)}, late}));
  // The old relation holds `late` too, past the snapshot: the probe stops
  // there and finds it in the layer only, once.
  seen.clear();
  view.Probe(0, Value::Int(2), [&](const Tuple& t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<Tuple>{late}));
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  EXPECT_TRUE(db.CreateRelation(TwoIntSchema("r")).ok());
  EXPECT_TRUE(db.CreateRelation(TwoIntSchema("s")).ok());
  // Duplicate names rejected.
  Status dup = db.CreateRelation(TwoIntSchema("r"));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  EXPECT_NE(db.Find("r"), nullptr);
  EXPECT_NE(db.Find("s"), nullptr);
  EXPECT_EQ(db.Find("t"), nullptr);
  EXPECT_FALSE(db.Get("t").ok());
  EXPECT_EQ(db.RelationNames(), (std::vector<std::string>{"r", "s"}));
}

TEST(DatabaseTest, SchemaReflectsAllRelations) {
  // Regression: CreateRelation once lost relations to an unsequenced move.
  Database db;
  ASSERT_TRUE(db.CreateRelation(TwoIntSchema("d")).ok());
  ASSERT_TRUE(db.CreateRelation(TwoIntSchema("e")).ok());
  DatabaseSchema schema = db.Schema();
  EXPECT_NE(schema.FindRelation("d"), nullptr);
  EXPECT_NE(schema.FindRelation("e"), nullptr);
  EXPECT_EQ(schema.relations().size(), 2u);
}

TEST(DatabaseTest, SnapshotAndRestoreRoundTrip) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(TwoIntSchema("r")).ok());
  db.Find("r")->Insert(Tuple{Value::Int(1), Value::Int(2)});
  auto snapshot = db.Snapshot();

  db.Find("r")->Insert(Tuple{Value::Int(3), Value::Int(4)});
  EXPECT_EQ(db.TotalTuples(), 2u);

  ASSERT_TRUE(db.Restore(snapshot).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_TRUE(db.Find("r")->Contains(Tuple{Value::Int(1), Value::Int(2)}));
}

TEST(PrinterTest, FormatsAlignedTable) {
  Relation r(RelationSchema("people", {{"id", ValueType::kInt},
                                       {"name", ValueType::kString}}));
  r.Insert(Tuple{Value::Int(1), Value::String("bob")});
  r.Insert(Tuple{Value::Int(42), Value::String("alice")});
  std::string table = FormatRelation(r);
  EXPECT_NE(table.find("| id | name    |"), std::string::npos);
  EXPECT_NE(table.find("| 42 | 'alice' |"), std::string::npos);
}

}  // namespace
}  // namespace codb
