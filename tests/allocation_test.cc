// Pins the allocation discipline of the update path (DESIGN.md §8): an
// insert into an indexed relation, a frontier the export memory records
// and a distinct frontier an evaluation emits each cost no heap
// allocation of their own. Only growth steps allocate, so a run of N
// costs O(log N) allocations, not O(N). A frontier a distributed query
// serves goes through the same export memory, so it costs none either.
//
// The binary replaces the global operator new with one that counts its
// calls; nothing else in it allocates while a count runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <new>
#include <vector>

#include "core/export_memory.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "relation/database.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// Counts, then hands the request to the library's aligned allocator
// (which this binary does not replace) at the default alignment; every
// delete below returns the block the same way.
constexpr std::align_val_t kAlign{__STDCPP_DEFAULT_NEW_ALIGNMENT__};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(size, kAlign);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { ::operator delete(p, kAlign); }
void operator delete[](void* p) noexcept { ::operator delete(p, kAlign); }
void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p, kAlign);
}
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p, kAlign);
}

namespace codb {
namespace {

constexpr int kRun = 100'000;
// Growth steps of a handful of geometric containers over kRun entries:
// each doubles about 17 times. Anything per entry is 1000 times more.
constexpr size_t kMaxAllocations = 200;

// Heap allocations `fn` makes.
template <typename Fn>
size_t AllocationsOf(Fn&& fn) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

RelationSchema TwoInts() {
  return RelationSchema("r", {{"a", ValueType::kInt},
                              {"b", ValueType::kInt}});
}

TEST(AllocationTest, CountingReplacementCounts) {
  // Called as functions, not new-expressions, so no optimizer elides them.
  static void* volatile block = nullptr;
  EXPECT_EQ(AllocationsOf([] { block = ::operator new(16); }), 1u);
  ::operator delete(block);
}

TEST(AllocationTest, IndexedInsertsAllocateOnlyToGrow) {
  Relation r(TwoInts());
  // A built column index (100 keys) and a built composite index (a key
  // per row) that every insert links into.
  r.Probe(0, Value::Int(0));
  r.ProbeComposite({0, 1}, {Value::Int(0), Value::Int(0)});
  std::vector<Tuple> rows;
  rows.reserve(kRun);
  for (int i = 0; i < kRun; ++i) {
    rows.push_back(Tuple{Value::Int(i % 100), Value::Int(i)});
  }
  const size_t allocations = AllocationsOf([&] {
    for (const Tuple& row : rows) r.Insert(row);
  });
  ASSERT_EQ(r.size(), static_cast<size_t>(kRun));
  EXPECT_EQ(r.Probe(0, Value::Int(7)).size(),
            static_cast<size_t>(kRun / 100));
  EXPECT_LT(allocations, kMaxAllocations);
}

TEST(AllocationTest, ExportMemoryAdmitAllocatesOnlyToGrow) {
  // 100-frontier shipments, as a flow's batches arrive.
  std::vector<std::vector<Tuple>> shipments(kRun / 100);
  for (int i = 0; i < kRun; ++i) {
    shipments[static_cast<size_t>(i / 100)].push_back(
        Tuple{Value::Int(i), Value::Int(i % 7)});
  }
  ExportMemory memory;
  const uint64_t epoch = memory.NewEpoch();
  const std::string rule = "r1";
  size_t kept = 0;
  const size_t allocations = AllocationsOf([&] {
    for (std::vector<Tuple>& frontiers : shipments) {
      memory.Admit(rule, epoch, /*incremental=*/false, frontiers);
      kept += frontiers.size();
    }
  });
  EXPECT_EQ(kept, static_cast<size_t>(kRun));
  EXPECT_TRUE(memory.Seen(rule, Tuple{Value::Int(kRun - 1),
                                      Value::Int((kRun - 1) % 7)}));
  EXPECT_LT(allocations, kMaxAllocations);
}

TEST(AllocationTest, EvaluateAllocatesOnlyToGrow) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(TwoInts()).ok());
  Relation* r = db.Find("r");
  for (int i = 0; i < kRun; ++i) {
    r->Insert(Tuple{Value::Int(i), Value::Int(i % 13)});
  }
  CompiledQuery query =
      std::move(CompiledQuery::Compile(
                    ParseQuery("q(A, B) :- r(A, B).").value(), db.Schema(),
                    {"A", "B"}))
          .value();
  size_t frontiers = 0;
  const size_t allocations = AllocationsOf([&] {
    frontiers = query.Evaluate(db).size();
  });
  EXPECT_EQ(frontiers, static_cast<size_t>(kRun));
  EXPECT_LT(allocations, kMaxAllocations);
}

TEST(AllocationTest, ServedQueryFrontiersAllocateOnlyToGrow) {
  // n0 <- n1 with a copy rule, materialised: n1 then serves a distributed
  // query from n0 with all its rows, which n0 finds already stored.
  constexpr int kFrontiers = 10'000;
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = kFrontiers;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(MakeChain(options));
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  Node* n0 = bed.node("n0");
  const ConjunctiveQuery query = ParseQuery("q(K, V) :- d(K, V).").value();

  Result<FlowId> id = Status::Internal("not started");
  const size_t allocations = AllocationsOf([&] {
    id = n0->StartQuery(query);
    bed.network().Run();
  });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(n0->QueryDone(id.value()));
  const UpdateReport* served =
      bed.node("n1")->statistics().FindReport(id.value());
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->data_messages_sent, 1u);
  ASSERT_EQ(served->sent_per_rule.size(), 1u);
  EXPECT_EQ(served->sent_per_rule.begin()->second.tuples,
            static_cast<uint64_t>(kFrontiers));
  EXPECT_LT(allocations, static_cast<size_t>(kFrontiers / 10));
}

}  // namespace
}  // namespace codb
