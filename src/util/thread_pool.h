// A small FIFO thread pool: the workers behind a node's per-flow strands
// (core/flow_executor.h).
//
// Design points:
//   * `num_threads` counts the *caller* too: a pool built with N spawns
//     N-1 workers. A pool with num_threads == 1 therefore spawns no
//     threads at all and runs every Submit inline on the calling thread —
//     the sequential path stays the sequential path, with no handoff and
//     no extra synchronization.
//   * One mutex-guarded FIFO. Strands keep per-flow order themselves, so
//     the pool only needs to hand each task to some idle worker; the
//     queue depth is read under the same lock that pushes and pops, so
//     the gauge can never see a task claimed before it was counted.
//   * Workers sleep on a condition variable when there is no work — the
//     pool must be parked inside every Node without burning a core.
//   * No dependency on obs/: stats are plain counters, sampled into the
//     metrics registry by whoever owns the pool (see core::Node's
//     `exec.*` gauges). util/ stays the base layer.
//
// Lifetime: tasks must not outlive the pool; the destructor drains
// nothing — it wakes the workers and joins them after their current
// task, so callers (Node drains its strands first) must reach quiescence
// before destroying it.

#ifndef CODB_UTIL_THREAD_POOL_H_
#define CODB_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace codb {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // Spawns max(0, num_threads - 1) worker threads.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Fire-and-forget. With no workers the task runs inline on the
  // calling thread (still counted in the stats).
  void Submit(Task task);

  // Plain counters for the owner to export as metrics.
  struct StatsSnapshot {
    uint64_t submitted = 0;    // tasks handed to the pool
    uint64_t executed = 0;     // tasks completed
    uint64_t queue_depth = 0;  // instantaneous queued-but-unclaimed
    uint64_t busy_us = 0;      // cumulative task execution time
  };
  StatsSnapshot Stats() const;

 private:
  void WorkerLoop();
  // Runs `task` and charges it to the executed/busy counters.
  void Execute(Task& task);

  const int num_threads_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;  // guarded by mu_
  bool shutdown_ = false;   // guarded by mu_

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> busy_us_{0};

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace codb

#endif  // CODB_UTIL_THREAD_POOL_H_
