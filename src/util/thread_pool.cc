#include "util/thread_pool.h"

#include <chrono>

namespace codb {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(Task task) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty()) {
    Execute(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::Execute(Task& task) {
  auto start = std::chrono::steady_clock::now();
  task();
  busy_us_.fetch_add(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count(),
                     std::memory_order_relaxed);
  executed_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    Execute(task);
  }
}

ThreadPool::StatsSnapshot ThreadPool::Stats() const {
  StatsSnapshot snapshot;
  snapshot.submitted = submitted_.load(std::memory_order_relaxed);
  snapshot.executed = executed_.load(std::memory_order_relaxed);
  snapshot.busy_us = busy_us_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.queue_depth = queue_.size();
  return snapshot;
}

}  // namespace codb
