// Tests of the flat position table (relation/position_table.h) and of the
// relation indexes built on it: the dedup index behind Insert, RowOf and
// Contains, and the chained buckets behind Probe and ProbeComposite, all
// checked against plain containers and brute-force scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "relation/position_table.h"
#include "relation/relation.h"
#include "util/random.h"

namespace codb {
namespace {

// The caller's side of a table: the sequence its positions point into,
// and a hash of the caller's choosing.
class Values {
 public:
  explicit Values(uint32_t (*hash)(int64_t)) : hash_(hash) {}

  // FindOrInsert of `value`; true if it was new.
  bool Add(int64_t value) {
    const uint32_t found = table_.FindOrInsert(
        hash_(value), static_cast<uint32_t>(values_.size()),
        [&](uint32_t at) { return values_[at] == value; });
    if (found != PositionTable::kNone) {
      EXPECT_EQ(values_[found], value);
      return false;
    }
    values_.push_back(value);
    return true;
  }

  // Position of `value`, or kNone.
  uint32_t Find(int64_t value) const {
    return table_.Find(hash_(value),
                       [&](uint32_t at) { return values_[at] == value; });
  }

  void Clear() {
    table_.Clear();
    values_.clear();
  }

  PositionTable& table() { return table_; }
  const std::vector<int64_t>& values() const { return values_; }

 private:
  uint32_t (*hash_)(int64_t);
  PositionTable table_;
  std::vector<int64_t> values_;
};

uint32_t Spread(int64_t value) {
  return PositionTable::Fold(Value::Int(value).Hash());
}

// Checks every value of `oracle`, and a run of absent ones, against the
// table.
void ExpectMatches(const Values& values,
                   const std::unordered_set<int64_t>& oracle,
                   int64_t absent_from) {
  ASSERT_EQ(values.values().size(), oracle.size());
  for (int64_t value : oracle) {
    const uint32_t at = values.Find(value);
    ASSERT_NE(at, PositionTable::kNone) << value;
    EXPECT_EQ(values.values()[at], value);
  }
  for (int64_t value = absent_from; value < absent_from + 100; ++value) {
    EXPECT_EQ(values.Find(value), PositionTable::kNone) << value;
  }
}

TEST(PositionTableTest, EmptyTableFindsNothing) {
  PositionTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.Find(7, [](uint32_t) { return true; }),
            PositionTable::kNone);
}

TEST(PositionTableTest, AllHashesCollide) {
  // One hash for every value: one probe run, told apart by the predicate.
  Values values([](int64_t) -> uint32_t { return 7; });
  std::unordered_set<int64_t> oracle;
  for (int64_t v = 0; v < 600; ++v) {
    EXPECT_EQ(values.Add(v * 3), oracle.insert(v * 3).second);
    EXPECT_EQ(values.Add(v * 3), false);  // a duplicate is found
  }
  ExpectMatches(values, oracle, /*absent_from=*/1'000'000);
  EXPECT_EQ(values.table().size(), 600u);
}

TEST(PositionTableTest, ProbeRunsWrapPastTheLastSlot) {
  // Hashes that all land on the last slot of a 16-slot table: the run
  // continues at slot 0, where entries hashed to slot 0 then queue
  // behind it.
  Values values([](int64_t value) -> uint32_t {
    return value < 100 ? 15 + 16 * static_cast<uint32_t>(value % 3) : 0;
  });
  values.table().Reserve(12);
  ASSERT_EQ(values.table().capacity(), 16u);
  std::unordered_set<int64_t> oracle;
  for (int64_t v : {0, 1, 2, 3, 4, 100, 101, 5, 102, 6, 103}) {
    EXPECT_TRUE(values.Add(v));
    oracle.insert(v);
  }
  ASSERT_EQ(values.table().capacity(), 16u);  // no growth: 11 <= 12
  ExpectMatches(values, oracle, /*absent_from=*/200);
  for (int64_t v : oracle) EXPECT_FALSE(values.Add(v));
  // The 13th entry grows the table; every run is re-placed by its hash.
  EXPECT_TRUE(values.Add(7));
  EXPECT_TRUE(values.Add(104));
  oracle.insert({7, 104});
  EXPECT_EQ(values.table().capacity(), 32u);
  ExpectMatches(values, oracle, /*absent_from=*/200);
}

TEST(PositionTableTest, GrowsThroughManyDoublings) {
  Values values(&Spread);
  std::unordered_set<int64_t> oracle;
  Rng rng(17);
  size_t capacity = 0;
  int doublings = 0;
  for (int i = 0; i < 100'000; ++i) {
    // Duplicates about one time in four.
    const int64_t v = static_cast<int64_t>(rng.Uniform(75'000));
    ASSERT_EQ(values.Add(v), oracle.insert(v).second) << v;
    if (values.table().capacity() != capacity) {
      if (capacity != 0) {
        EXPECT_EQ(values.table().capacity(), 2 * capacity);
        ++doublings;
      }
      capacity = values.table().capacity();
    }
  }
  EXPECT_GE(doublings, 10);
  EXPECT_EQ(values.table().size(), oracle.size());
  EXPECT_LE(values.table().size(), capacity - capacity / 4);
  ExpectMatches(values, oracle, /*absent_from=*/1'000'000);
}

TEST(PositionTableTest, ReserveGrowsOnlyWhenNeeded) {
  PositionTable table;
  table.Reserve(0);
  EXPECT_EQ(table.capacity(), 0u);
  table.Reserve(100);
  EXPECT_EQ(table.capacity(), 256u);  // 100 > 96 = 3/4 of 128
  table.Reserve(150);
  EXPECT_EQ(table.capacity(), 256u);
  table.Reserve(193);
  EXPECT_EQ(table.capacity(), 512u);
}

TEST(PositionTableTest, ClearSmallAndLargeTables) {
  for (int count : {10, 5'000}) {
    SCOPED_TRACE(count);
    Values values(&Spread);
    for (int64_t v = 0; v < count; ++v) ASSERT_TRUE(values.Add(v));
    const size_t capacity = values.table().capacity();
    values.Clear();
    EXPECT_EQ(values.table().size(), 0u);
    // A small table is swept and kept; a large one is given back.
    EXPECT_EQ(values.table().capacity(), count == 10 ? capacity : 0u);
    for (int64_t v = 0; v < count; ++v) {
      ASSERT_EQ(values.Find(v), PositionTable::kNone);
    }
    std::unordered_set<int64_t> oracle;
    for (int64_t v = count; v < 2 * count; ++v) {
      ASSERT_TRUE(values.Add(v));
      oracle.insert(v);
    }
    ExpectMatches(values, oracle, /*absent_from=*/2 * count);
  }
}

// --- The relation's indexes against brute force. ---

RelationSchema ThreeInts() {
  return RelationSchema("r", {{"a", ValueType::kInt},
                              {"b", ValueType::kInt},
                              {"c", ValueType::kInt}});
}

// Positions of the rows below `end` matching `keys` on `columns`,
// ascending: what a probe must give.
std::vector<uint32_t> Scan(const Relation& r, const std::vector<int>& columns,
                           const std::vector<Value>& keys, size_t end) {
  std::vector<uint32_t> out;
  for (size_t row = 0; row < end; ++row) {
    bool match = true;
    for (size_t i = 0; i < columns.size(); ++i) {
      match = match && r.rows()[row].at(columns[i]) == keys[i];
    }
    if (match) out.push_back(static_cast<uint32_t>(row));
  }
  return out;
}

std::vector<uint32_t> Listed(const Relation::Bucket& bucket) {
  return std::vector<uint32_t>(bucket.begin(), bucket.end());
}

void ExpectIndexesMatch(const Relation& r, int64_t domain) {
  for (int c = 0; c < 3; ++c) {
    for (int64_t k = 0; k <= domain; ++k) {  // k == domain: no row
      const std::vector<uint32_t> expected =
          Scan(r, {c}, {Value::Int(k)}, r.size());
      const Relation::Bucket bucket = r.Probe(c, Value::Int(k));
      ASSERT_EQ(Listed(bucket), expected) << "column " << c << " key " << k;
      EXPECT_EQ(bucket.size(), expected.size());
      EXPECT_EQ(bucket.empty(), expected.empty());
    }
  }
  const std::vector<std::vector<int>> sets = {{0, 1}, {0, 2}, {1, 2},
                                              {0, 1, 2}};
  for (const std::vector<int>& columns : sets) {
    for (int64_t k0 = 0; k0 < domain; ++k0) {
      for (int64_t k1 = 0; k1 < domain; ++k1) {
        std::vector<Value> keys = {Value::Int(k0), Value::Int(k1)};
        if (columns.size() == 3) keys.push_back(Value::Int((k0 + k1) % 3));
        const std::vector<uint32_t> expected =
            Scan(r, columns, keys, r.size());
        const Relation::Bucket bucket = r.ProbeComposite(columns, keys);
        ASSERT_EQ(Listed(bucket), expected);
        EXPECT_EQ(bucket.size(), expected.size());
      }
    }
  }
}

TEST(RelationIndexTest, DifferentialAgainstBruteForce) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Three or four values a column, so buckets hold hundreds of rows.
    const int64_t domain = 3 + static_cast<int64_t>(seed % 2);
    Relation r(ThreeInts());
    std::vector<Tuple> inserted;
    auto random_tuple = [&]() {
      return Tuple{Value::Int(rng.UniformInt(0, domain - 1)),
                   Value::Int(rng.UniformInt(0, domain - 1)),
                   Value::Int(rng.UniformInt(0, 400))};
    };
    // Some indexes exist before the rows, others are built over them.
    if (seed % 2 == 0) {
      r.Probe(1, Value::Int(0));
      r.ProbeComposite({0, 2}, {Value::Int(0), Value::Int(0)});
    }
    for (int round = 0; round < 3; ++round) {
      if (round == 1) r.Reserve(r.size() + 500);
      for (int i = 0; i < 600; ++i) {
        const Tuple t = random_tuple();
        const bool fresh =
            std::find(inserted.begin(), inserted.end(), t) == inserted.end();
        ASSERT_EQ(r.Insert(t), fresh);
        if (fresh) inserted.push_back(t);
      }
      ASSERT_EQ(r.size(), inserted.size());
      ExpectIndexesMatch(r, domain);
    }
    EXPECT_GT(r.Probe(0, Value::Int(0)).size(), 200u);

    // RowOf and Contains: every row at its position, absent tuples
    // nowhere.
    for (size_t row = 0; row < inserted.size(); ++row) {
      EXPECT_EQ(r.RowOf(inserted[row]), row);
      EXPECT_TRUE(r.Contains(inserted[row]));
    }
    for (int64_t c = 401; c < 420; ++c) {
      const Tuple absent{Value::Int(0), Value::Int(0), Value::Int(c)};
      EXPECT_EQ(r.RowOf(absent), Relation::kNoRow);
      EXPECT_FALSE(r.Contains(absent));
    }

    // A view of the first `end` rows stops every bucket walk there.
    for (size_t end : {size_t{0}, size_t{1}, size_t{17}, r.size() / 2,
                       r.size() - 1, r.size()}) {
      const RelationView view(&r, end, nullptr);
      for (int64_t k = 0; k < domain; ++k) {
        std::vector<uint32_t> seen;
        view.Probe(2, Value::Int(k), [&](const Tuple& t) {
          seen.push_back(r.RowOf(t));
        });
        EXPECT_EQ(seen, Scan(r, {2}, {Value::Int(k)}, end)) << end;
        seen.clear();
        const std::vector<Value> keys = {Value::Int(k), Value::Int(1)};
        view.ProbeComposite({0, 1}, keys, [&](const Tuple& t) {
          seen.push_back(r.RowOf(t));
        });
        EXPECT_EQ(seen, Scan(r, {0, 1}, keys, end)) << end;
      }
    }
  }
}

TEST(RelationIndexTest, BucketTakenEarlySeesLaterRows) {
  Relation r(ThreeInts());
  r.Insert(Tuple{Value::Int(1), Value::Int(0), Value::Int(0)});
  const Relation::Bucket single = r.Probe(0, Value::Int(1));
  const Relation::Bucket composite =
      r.ProbeComposite({0, 1}, {Value::Int(1), Value::Int(0)});
  const Relation::Bucket absent = r.Probe(0, Value::Int(2));
  for (int64_t i = 1; i < 3000; ++i) {
    r.Insert(Tuple{Value::Int(i % 3), Value::Int(i % 2), Value::Int(i)});
  }
  EXPECT_EQ(Listed(single), Scan(r, {0}, {Value::Int(1)}, r.size()));
  EXPECT_EQ(single.size(), 1001u);  // the first row and i = 1, 4, ...
  EXPECT_EQ(Listed(composite),
            Scan(r, {0, 1}, {Value::Int(1), Value::Int(0)}, r.size()));
  // A key no row held at the probe stays an empty bucket.
  EXPECT_TRUE(absent.empty());
  EXPECT_EQ(absent.begin(), absent.end());
  EXPECT_EQ(r.Probe(0, Value::Int(2)).size(), 1000u);
}

TEST(RelationIndexTest, ImportProvenanceStaysWithTheRow) {
  Relation r(ThreeInts());
  const Tuple local{Value::Int(1), Value::Int(1), Value::Int(1)};
  const Tuple imported{Value::Int(2), Value::Int(2), Value::Int(2)};
  EXPECT_FALSE(r.HasImports());
  EXPECT_TRUE(r.Insert(local));
  EXPECT_TRUE(r.Insert(imported, /*imported=*/true));
  // A duplicate keeps the provenance the row has.
  EXPECT_FALSE(r.Insert(local, /*imported=*/true));
  EXPECT_TRUE(r.HasImports());
  EXPECT_FALSE(r.IsImported(r.RowOf(local)));
  EXPECT_TRUE(r.IsImported(r.RowOf(imported)));
  EXPECT_FALSE(r.IsImported(Relation::kNoRow));
}

}  // namespace
}  // namespace codb
