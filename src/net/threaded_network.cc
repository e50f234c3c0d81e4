#include "net/threaded_network.h"

#include <algorithm>
#include <cassert>

namespace codb {

ThreadedNetwork::ThreadedNetwork()
    : epoch_(std::chrono::steady_clock::now()) {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ThreadedNetwork::~ThreadedNetwork() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
}

int64_t ThreadedNetwork::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadedNetwork::OnJoin(PeerId id) {
  assert(id.value == workers_.size());
  auto worker = std::make_unique<Worker>();
  // The thread blocks on mu_ until Join releases it.
  worker->thread = std::thread([this, id] { WorkerLoop(id.value); });
  workers_.push_back(std::move(worker));
}

Status ThreadedNetwork::Enqueue(std::unique_ptr<Message> message,
                                int64_t sent_us, int64_t arrival_us) {
  InboxItem item;
  item.due = epoch_ + std::chrono::microseconds(arrival_us);
  item.sent_us = sent_us;
  item.maintenance = message->maintenance;
  const uint32_t destination = message->dst.value;
  item.message = std::move(message);
  PushInboxLocked(destination, std::move(item));
  return Status::Ok();
}

void ThreadedNetwork::NotifyPipeClosed(PeerId peer, PeerId other) {
  std::lock_guard<std::mutex> lock(mu_);
  InboxItem item;
  item.closed_other = other;
  item.due = std::chrono::steady_clock::now();
  PushInboxLocked(peer.value, std::move(item));
}

void ThreadedNetwork::PushInboxLocked(uint32_t peer, InboxItem item) {
  Worker& worker = *workers_[peer];
  // Keep the inbox sorted by due time (stable for ties) so a jittered
  // message lets later traffic overtake it instead of head-of-line
  // blocking the whole inbox behind its delay.
  auto pos = std::upper_bound(
      worker.inbox.begin(), worker.inbox.end(), item.due,
      [](const std::chrono::steady_clock::time_point& due,
         const InboxItem& other) { return due < other.due; });
  if (!item.maintenance) ++busy_;
  worker.inbox.insert(pos, std::move(item));
  profiler_.NoteQueueDepth(/*maintenance=*/false, worker.inbox.size());
  work_cv_.notify_all();
}

void ThreadedNetwork::ScheduleAt(int64_t time_us,
                                 std::function<void()> action) {
  Timer timer;
  timer.due = epoch_ + std::chrono::microseconds(std::max(time_us, now_us()));
  timer.action = std::move(action);
  PushTimer(std::move(timer));
}

void ThreadedNetwork::ScheduleMaintenance(int64_t delay_us,
                                          std::function<void()> action) {
  Timer timer;
  timer.due = epoch_ + std::chrono::microseconds(
                           now_us() + std::max<int64_t>(delay_us, 0));
  timer.action = std::move(action);
  timer.maintenance = true;
  PushTimer(std::move(timer));
}

void ThreadedNetwork::PushTimer(Timer timer) {
  std::lock_guard<std::mutex> lock(mu_);
  // A pending maintenance timer must not hold Run() open; the timer
  // thread counts it only while it executes.
  if (!timer.maintenance) ++busy_;
  timers_.push_back(std::move(timer));
  profiler_.NoteQueueDepth(/*maintenance=*/true, timers_.size());
  work_cv_.notify_all();
}

void ThreadedNetwork::WorkerLoop(uint32_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  Worker& worker = *workers_[index];
  for (;;) {
    if (shutdown_) return;
    if (worker.inbox.empty()) {
      work_cv_.wait(lock);
      continue;
    }
    // FIFO delivery, but not before the item's due time. Copy the due
    // time out: wait_until releases the lock, and the inbox may grow
    // (or the timers vector reallocate) while we sleep.
    auto due = worker.inbox.front().due;
    if (due > std::chrono::steady_clock::now()) {
      work_cv_.wait_until(lock, due);
      continue;
    }
    InboxItem item = std::move(worker.inbox.front());
    worker.inbox.pop_front();
    // A queued maintenance item was never counted; its handler execution
    // is, so Run() cannot return while a beacon handler is mid-flight.
    if (item.maintenance) ++busy_;
    // Run the handler without the lock; the peer's serialization is
    // preserved because only this thread drains this inbox.
    lock.unlock();
    if (item.message != nullptr) {
      Deliver(*item.message, item.sent_us);
    } else {
      DeliverPipeClosed(PeerId(index), item.closed_other);
    }
    lock.lock();
    ++events_processed_;
    --busy_;
    if (busy_ == 0) quiescent_cv_.notify_all();
  }
}

void ThreadedNetwork::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) return;
    // Find the earliest due timer.
    auto earliest = timers_.end();
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (earliest == timers_.end() || it->due < earliest->due) {
        earliest = it;
      }
    }
    if (earliest == timers_.end()) {
      work_cv_.wait(lock);
      continue;
    }
    // Copy the due time before sleeping: wait_until releases the lock,
    // and a concurrent ScheduleAt may reallocate timers_, leaving
    // `earliest` (and any reference into it) dangling.
    auto due = earliest->due;
    if (due > std::chrono::steady_clock::now()) {
      work_cv_.wait_until(lock, due);
      continue;
    }
    std::function<void()> action = std::move(earliest->action);
    // Pending maintenance timers are not busy_; count one only for the
    // duration of its execution (the tail --busy_ balances it).
    if (earliest->maintenance) ++busy_;
    timers_.erase(earliest);
    if (profiler_.enabled()) {
      profiler_.RecordTimerLag(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - due)
              .count());
    }
    lock.unlock();
    if (action) action();
    lock.lock();
    ++events_processed_;
    --busy_;
    if (busy_ == 0) quiescent_cv_.notify_all();
  }
}

uint64_t ThreadedNetwork::Run(uint64_t max_events) {
  (void)max_events;  // the threaded runtime has no event cap
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t before = events_processed_;
  quiescent_cv_.wait(lock, [this] { return busy_ == 0 || shutdown_; });
  return events_processed_ - before;
}

uint64_t ThreadedNetwork::RunUntil(int64_t deadline_us) {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t before = events_processed_;
  auto deadline = epoch_ + std::chrono::microseconds(deadline_us);
  // Sleep through the window so maintenance traffic keeps firing on the
  // worker/timer threads, then drain whatever is still executing.
  while (!shutdown_ && std::chrono::steady_clock::now() < deadline) {
    quiescent_cv_.wait_until(lock, deadline);
  }
  quiescent_cv_.wait(lock, [this] { return busy_ == 0 || shutdown_; });
  return events_processed_ - before;
}

}  // namespace codb
