// Unit tests for the intra-node concurrency primitives (DESIGN.md §10):
// the FIFO thread pool, the sharded reader/writer store lock, the
// per-flow strand executor, and the wrapper's journal serialization.
// Each test pins one contract the integration suites rely on; the
// regression tests encode real or possible bugs (a queue-depth gauge
// wrapping below zero; journal appends racing once writers touch
// disjoint shards).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/flow_executor.h"
#include "core/protocol.h"
#include "net/network.h"
#include "relation/database.h"
#include "relation/wal.h"
#include "util/sharded_rwlock.h"
#include "util/thread_pool.h"
#include "wrapper/wrapper.h"

namespace codb {
namespace {

// -- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  // num_threads counts the caller: a pool of 1 spawns no workers and
  // Submit runs each task on the calling thread before returning.
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&all_inline, &ran, caller] {
      if (std::this_thread::get_id() != caller) all_inline = false;
      ++ran;
    });
    EXPECT_EQ(ran, i + 1) << "Submit returned before its task ran";
  }
  EXPECT_TRUE(all_inline);
  EXPECT_EQ(pool.Stats().executed, 10u);
}

TEST(ThreadPoolTest, SubmitRunsFireAndForgetTasks) {
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++count == 20) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return count == 20; }));
}

TEST(ThreadPoolTest, QueueDepthNeverExceedsSubmitted) {
  // The depth must count a task before any worker can claim it: a
  // counter raised after the task is published lets a worker count it
  // down first, and the unsigned gauge reads 2^64 - k. Two producers
  // submit while a sampler polls the depth: no sample may exceed the
  // number of tasks ever submitted.
  constexpr int kProducers = 2;
  constexpr uint64_t kTasksPerProducer = 50000;
  constexpr uint64_t kTotal = kProducers * kTasksPerProducer;
  std::atomic<uint64_t> done{0};
  uint64_t samples = 0;
  uint64_t max_depth = 0;
  {
    ThreadPool pool(4);
    std::atomic<bool> stop{false};
    std::thread sampler([&] {
      do {
        max_depth = std::max(max_depth, pool.Stats().queue_depth);
        ++samples;
      } while (!stop.load());
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, &done] {
        for (uint64_t i = 0; i < kTasksPerProducer; ++i) {
          pool.Submit(
              [&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    while (done.load() < kTotal) std::this_thread::yield();
    stop.store(true);
    sampler.join();
    EXPECT_EQ(pool.Stats().queue_depth, 0u);
  }
  EXPECT_EQ(done.load(), kTotal);
  EXPECT_GT(samples, 0u);
  EXPECT_LE(max_depth, kTotal) << "queue depth wrapped below zero";
}

// -- ShardedRWLock -----------------------------------------------------------

TEST(ShardedRWLockTest, SortedShardsOfIsAscendingDistinctAndInRange) {
  ShardedRWLock lock;
  std::vector<std::string> keys = {"d", "e", "person", "origin",
                                   "d", "clients", "emp", "dept_name"};
  std::vector<size_t> shards = lock.SortedShardsOf(keys.begin(), keys.end());
  ASSERT_FALSE(shards.empty());
  for (size_t i = 0; i < shards.size(); ++i) {
    EXPECT_LT(shards[i], lock.shard_count());
    if (i > 0) {
      EXPECT_LT(shards[i - 1], shards[i]);
    }
  }
}

TEST(ShardedRWLockTest, WriterExcludesReaderOnTheSameKey) {
  ShardedRWLock lock;
  std::atomic<bool> reader_in{false};
  std::thread reader;
  {
    ShardedRWLock::WriteGuard write(lock, "d");
    reader = std::thread([&] {
      ShardedRWLock::ReadGuard read(lock, "d");
      reader_in.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(reader_in.load());
  }
  reader.join();
  EXPECT_TRUE(reader_in.load());
  // The reader blocked behind the writer; the wait was charged.
  EXPECT_GT(lock.wait_us(), 0u);
}

TEST(ShardedRWLockTest, WriteSetGuardCoversEveryListedKey) {
  ShardedRWLock lock;
  std::vector<std::string> keys = {"d", "e"};
  std::atomic<bool> writer_in{false};
  std::thread writer;
  {
    ShardedRWLock::WriteSetGuard set(
        lock, lock.SortedShardsOf(keys.begin(), keys.end()));
    writer = std::thread([&] {
      ShardedRWLock::WriteGuard write(lock, "e");
      writer_in.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(writer_in.load());
  }
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(ShardedRWLockTest, ReadersOnTheSameKeyShare) {
  ShardedRWLock lock;
  std::atomic<bool> second_in{false};
  ShardedRWLock::ReadGuard first(lock, "d");
  std::thread second([&] {
    ShardedRWLock::ReadGuard read(lock, "d");
    second_in.store(true);
  });
  second.join();  // returns promptly: readers never exclude readers
  EXPECT_TRUE(second_in.load());
}

// -- FlowExecutor ------------------------------------------------------------

TEST(FlowExecutorTest, PreservesPerFlowFifoAcrossConcurrentFlows) {
  ThreadPool pool(4);
  Network network;  // simulator: external-work hooks are benign no-ops
  FlowExecutor exec(&pool, &network);

  constexpr int kFlows = 3;
  constexpr int kTasksPerFlow = 80;
  std::mutex mu;
  std::vector<std::vector<int>> order(kFlows);

  for (int t = 0; t < kTasksPerFlow; ++t) {
    for (int f = 0; f < kFlows; ++f) {
      FlowId flow{FlowId::Scope::kQuery, static_cast<uint32_t>(f), 1};
      exec.Post(flow, [&mu, &order, f, t] {
        std::lock_guard<std::mutex> lock(mu);
        order[static_cast<size_t>(f)].push_back(t);
      });
    }
  }
  exec.Drain();

  for (int f = 0; f < kFlows; ++f) {
    ASSERT_EQ(order[static_cast<size_t>(f)].size(),
              static_cast<size_t>(kTasksPerFlow));
    for (int t = 0; t < kTasksPerFlow; ++t) {
      EXPECT_EQ(order[static_cast<size_t>(f)][static_cast<size_t>(t)], t)
          << "flow " << f << " ran out of order";
    }
  }
  EXPECT_EQ(exec.ActiveFlows(), 0u);
}

TEST(FlowExecutorTest, ActiveFlowsDropsToZeroAfterDrain) {
  ThreadPool pool(2);
  Network network;
  FlowExecutor exec(&pool, &network);

  for (uint64_t seq = 1; seq <= 16; ++seq) {
    exec.Post(FlowId{FlowId::Scope::kUpdate, 7, seq},
              [] { std::this_thread::yield(); });
  }
  exec.Drain();
  EXPECT_EQ(exec.ActiveFlows(), 0u);
}

// -- Wrapper journal serialization -------------------------------------------

// A sink that detects overlapping appends: the wrapper promises sinks
// serialized LogInsert calls even when store writers touch disjoint
// shards (the latent single-writer assumption of the durable WAL).
class OverlapDetectingSink : public JournalSink {
 public:
  void LogInsert(const std::string& relation, const Tuple& tuple) override {
    (void)relation;
    (void)tuple;
    if (depth_.fetch_add(1) != 0) overlapped_.store(true);
    std::this_thread::yield();  // widen the window
    entries_.fetch_add(1);
    depth_.fetch_sub(1);
  }

  bool overlapped() const { return overlapped_.load(); }
  int entries() const { return entries_.load(); }

 private:
  std::atomic<int> depth_{0};
  std::atomic<bool> overlapped_{false};
  std::atomic<int> entries_{0};
};

TEST(WrapperJournalTest, ConcurrentImportersNeverOverlapSinkAppends) {
  // 8 relations spread across shards, 4 threads each importing into its
  // own relations: the store lock alone would let two ApplyHeadTuples
  // calls proceed in parallel (disjoint shard sets), so only the
  // wrapper's journal mutex keeps the sink appends serialized.
  DatabaseSchema schema;
  constexpr int kRelations = 8;
  for (int r = 0; r < kRelations; ++r) {
    ASSERT_TRUE(schema
                    .AddRelation(RelationSchema(
                        "rel" + std::to_string(r), {{"a", ValueType::kInt}}))
                    .ok());
  }
  Result<std::unique_ptr<Wrapper>> wrapper =
      Wrapper::ForMediator(std::move(schema));
  ASSERT_TRUE(wrapper.ok()) << wrapper.status().ToString();

  OverlapDetectingSink sink;
  wrapper.value()->AttachJournal(&sink);

  constexpr int kThreads = 4;
  constexpr int kTuplesPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Wrapper& w = *wrapper.value();
      for (int i = 0; i < kTuplesPerThread; ++i) {
        // Thread t alternates between two relations of its own, with
        // values unique per thread so every insert is genuinely new.
        std::string relation = "rel" + std::to_string(t * 2 + (i % 2));
        Result<std::map<std::string, std::vector<Tuple>>> applied =
            w.ApplyHeadTuples(
                {{relation, Tuple{Value::Int(t * 100000 + i)}}});
        EXPECT_TRUE(applied.ok()) << applied.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(sink.overlapped()) << "journal appends overlapped";
  EXPECT_EQ(sink.entries(), kThreads * kTuplesPerThread);
  EXPECT_EQ(wrapper.value()->ImportedCount(),
            static_cast<size_t>(kThreads * kTuplesPerThread));
}

}  // namespace
}  // namespace codb
