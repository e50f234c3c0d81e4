#include "net/threaded_network.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace codb {

namespace {

std::pair<uint32_t, uint32_t> PipeKey(PeerId from, PeerId to) {
  return {from.value, to.value};
}

}  // namespace

ThreadedNetwork::ThreadedNetwork()
    : epoch_(std::chrono::steady_clock::now()) {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ThreadedNetwork::~ThreadedNetwork() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
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

PeerId ThreadedNetwork::Join(const std::string& name, NetworkPeer* peer) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t index = static_cast<uint32_t>(workers_.size());
  auto worker = std::make_unique<Worker>();
  worker->name = name;
  worker->handler = peer;
  worker->alive = true;
  worker->thread = std::thread([this, index] { WorkerLoop(index); });
  workers_.push_back(std::move(worker));
  Tracer::Global().SetNodeName(index, name);
  return PeerId(index);
}

Status ThreadedNetwork::Leave(PeerId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!id.valid() || id.value >= workers_.size() ||
      !workers_[id.value]->alive) {
    return Status::NotFound(id.ToString() + " is not on the network");
  }
  Worker& worker = *workers_[id.value];
  worker.alive = false;
  worker.handler = nullptr;
  // Unprocessed inbox items are dropped; keep the busy count honest
  // (queued maintenance items were never counted).
  for (const InboxItem& item : worker.inbox) {
    if (!item.maintenance) --busy_;
  }
  worker.inbox.clear();
  for (auto& [key, pipe] : pipes_) {
    if (!pipe.open) continue;
    if (key.first == id.value || key.second == id.value) {
      pipe.open = false;
      if (key.first == id.value) {
        NotifyPipeClosedLocked(PeerId(key.second), id);
      }
    }
  }
  work_cv_.notify_all();
  if (busy_ == 0) quiescent_cv_.notify_all();
  return Status::Ok();
}

bool ThreadedNetwork::IsAlive(PeerId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return id.valid() && id.value < workers_.size() &&
         workers_[id.value]->alive;
}

std::string ThreadedNetwork::NameOf(PeerId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!id.valid() || id.value >= workers_.size()) return "<unknown>";
  return workers_[id.value]->name;
}

Result<PeerId> ThreadedNetwork::FindByName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->alive && workers_[i]->name == name) {
      return PeerId(static_cast<uint32_t>(i));
    }
  }
  return Status::NotFound("no alive peer named '" + name + "'");
}

std::vector<PeerId> ThreadedNetwork::AlivePeers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PeerId> out;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->alive) out.push_back(PeerId(static_cast<uint32_t>(i)));
  }
  return out;
}

Status ThreadedNetwork::OpenPipe(PeerId a, PeerId b, LinkProfile profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto alive = [this](PeerId id) {
    return id.valid() && id.value < workers_.size() &&
           workers_[id.value]->alive;
  };
  if (!alive(a) || !alive(b)) {
    return Status::Unavailable("both endpoints must be alive to open a pipe");
  }
  if (a == b) return Status::InvalidArgument("cannot open a pipe to self");
  if (!profile.fault.Active() && default_fault_.Active()) {
    profile.fault = default_fault_;
  }
  pipes_[PipeKey(a, b)] = {profile, true, 0,
                           FaultInjector(profile.fault, a, b)};
  pipes_[PipeKey(b, a)] = {profile, true, 0,
                           FaultInjector(profile.fault, b, a)};
  return Status::Ok();
}

Status ThreadedNetwork::SetFaultProfile(PeerId a, PeerId b,
                                        const FaultProfile& fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto forward = pipes_.find(PipeKey(a, b));
  auto backward = pipes_.find(PipeKey(b, a));
  if (forward == pipes_.end() || backward == pipes_.end()) {
    return Status::NotFound("no pipe between " + a.ToString() + " and " +
                            b.ToString());
  }
  forward->second.profile.fault = fault;
  forward->second.injector = FaultInjector(fault, a, b);
  backward->second.profile.fault = fault;
  backward->second.injector = FaultInjector(fault, b, a);
  return Status::Ok();
}

void ThreadedNetwork::SetDefaultFaultProfile(const FaultProfile& fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  default_fault_ = fault;
  for (auto& [key, pipe] : pipes_) {
    if (!pipe.open) continue;
    pipe.profile.fault = fault;
    pipe.injector =
        FaultInjector(fault, PeerId(key.first), PeerId(key.second));
  }
}

Status ThreadedNetwork::ClosePipe(PeerId a, PeerId b) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto forward = pipes_.find(PipeKey(a, b));
  auto backward = pipes_.find(PipeKey(b, a));
  if (forward == pipes_.end() && backward == pipes_.end()) {
    return Status::NotFound("no pipe between " + a.ToString() + " and " +
                            b.ToString());
  }
  bool was_open = (forward != pipes_.end() && forward->second.open) ||
                  (backward != pipes_.end() && backward->second.open);
  if (forward != pipes_.end()) forward->second.open = false;
  if (backward != pipes_.end()) backward->second.open = false;
  if (was_open) {
    NotifyPipeClosedLocked(a, b);
    NotifyPipeClosedLocked(b, a);
  }
  return Status::Ok();
}

const ThreadedNetwork::PipeState* ThreadedNetwork::FindPipeLocked(
    PeerId from, PeerId to) const {
  auto it = pipes_.find(PipeKey(from, to));
  return it == pipes_.end() ? nullptr : &it->second;
}

bool ThreadedNetwork::HasPipe(PeerId from, PeerId to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const PipeState* pipe = FindPipeLocked(from, to);
  return pipe != nullptr && pipe->open;
}

std::vector<PeerId> ThreadedNetwork::Neighbors(PeerId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PeerId> out;
  for (const auto& [key, pipe] : pipes_) {
    if (key.first == id.value && pipe.open &&
        key.second < workers_.size() && workers_[key.second]->alive) {
      out.push_back(PeerId(key.second));
    }
  }
  return out;
}

size_t ThreadedNetwork::open_pipe_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [key, pipe] : pipes_) {
    if (pipe.open) ++n;
  }
  return n / 2;
}

void ThreadedNetwork::EnqueueLocked(uint32_t peer, InboxItem item) {
  Worker& worker = *workers_[peer];
  // Keep the inbox sorted by due time (stable for ties) so a jittered
  // message lets later traffic overtake it instead of head-of-line
  // blocking the whole inbox behind its delay.
  auto pos = std::upper_bound(
      worker.inbox.begin(), worker.inbox.end(), item.due,
      [](const std::chrono::steady_clock::time_point& due,
         const InboxItem& other) { return due < other.due; });
  bool maintenance = item.maintenance;
  worker.inbox.insert(pos, std::move(item));
  if (!maintenance) ++busy_;
  profiler_.NoteQueueDepth(/*maintenance=*/false, worker.inbox.size());
  work_cv_.notify_all();
}

void ThreadedNetwork::NotifyPipeClosedLocked(PeerId peer, PeerId other) {
  if (!peer.valid() || peer.value >= workers_.size()) return;
  if (!workers_[peer.value]->alive) return;
  InboxItem item;
  item.pipe_closed = true;
  item.closed_other = other;
  item.due = std::chrono::steady_clock::now();
  item.enqueued = item.due;
  EnqueueLocked(peer.value, std::move(item));
}

Status ThreadedNetwork::Send(Message message) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!message.src.valid() || message.src.value >= workers_.size() ||
      !workers_[message.src.value]->alive) {
    return Status::Unavailable("sender " + message.src.ToString() +
                               " is not on the network");
  }
  auto it = pipes_.find(PipeKey(message.src, message.dst));
  if (it == pipes_.end() || !it->second.open) {
    return Status::Unavailable("no open pipe " + message.src.ToString() +
                               " -> " + message.dst.ToString());
  }
  if (message.dst.value >= workers_.size() ||
      !workers_[message.dst.value]->alive) {
    stats_.RecordSend(message);
    RecordCostSend(message);
    stats_.RecordDrop(message);
    return Status::Ok();  // in-flight loss semantics
  }
  stats_.RecordSend(message);
  // Ledger accounting mirrors TransportStats: send bytes are charged even
  // if the fault injector drops the message below.
  RecordCostSend(message);
  PipeState& pipe = it->second;
  FaultInjector::Decision fault = pipe.injector.Next();
  if (fault.drop) {
    // The sender cannot tell a dropped message from a delivered one.
    stats_.RecordInjectedDrop();
    return Status::Ok();
  }
  if (Tracer::Global().enabled()) {
    message.trace_id = Tracer::Global().NoteSend();
  }

  // Latency + bandwidth queueing, like the simulator but in wall time.
  int64_t now = now_us();
  auto schedule_arrival = [&pipe, now](size_t bytes) {
    int64_t start = std::max(now, pipe.busy_until_us);
    int64_t transmit =
        pipe.profile.bandwidth_bpus > 0
            ? static_cast<int64_t>(static_cast<double>(bytes) /
                                   pipe.profile.bandwidth_bpus)
            : 0;
    pipe.busy_until_us = start + transmit;
    return pipe.busy_until_us + pipe.profile.latency_us;
  };
  int64_t arrival = schedule_arrival(message.WireSize());
  if (fault.extra_delay_us > 0) {
    stats_.RecordInjectedDelay();
    arrival += fault.extra_delay_us;
  }

  uint32_t destination = message.dst.value;
  const bool maintenance = message.maintenance;
  auto enqueued_at = std::chrono::steady_clock::now();
  if (fault.duplicate) {
    stats_.RecordInjectedDup();
    // The copy rides right behind the original on the wire.
    int64_t dup_arrival = schedule_arrival(message.WireSize());
    InboxItem dup;
    dup.message = std::make_unique<Message>(message);
    dup.due = epoch_ + std::chrono::microseconds(dup_arrival);
    dup.enqueued = enqueued_at;
    dup.maintenance = maintenance;
    EnqueueLocked(destination, std::move(dup));
  }
  InboxItem item;
  item.message = std::make_unique<Message>(std::move(message));
  item.due = epoch_ + std::chrono::microseconds(arrival);
  item.enqueued = enqueued_at;
  item.maintenance = maintenance;
  EnqueueLocked(destination, std::move(item));
  return Status::Ok();
}

void ThreadedNetwork::ScheduleAt(int64_t time_us,
                                 std::function<void()> action) {
  std::lock_guard<std::mutex> lock(mutex_);
  timers_.push_back(
      {epoch_ + std::chrono::microseconds(std::max(time_us, now_us())),
       std::move(action)});
  ++busy_;
  profiler_.NoteQueueDepth(/*maintenance=*/true, timers_.size());
  work_cv_.notify_all();
}

void ThreadedNetwork::ScheduleAfter(int64_t delay_us,
                                    std::function<void()> action) {
  ScheduleAt(now_us() + delay_us, std::move(action));
}

void ThreadedNetwork::ScheduleMaintenance(int64_t delay_us,
                                          std::function<void()> action) {
  std::lock_guard<std::mutex> lock(mutex_);
  Timer timer;
  timer.due =
      epoch_ + std::chrono::microseconds(now_us() + std::max<int64_t>(
                                                        delay_us, 0));
  timer.action = std::move(action);
  timer.maintenance = true;
  // Deliberately no ++busy_: a pending maintenance timer must not hold
  // Run() open. The timer thread counts it only while it executes.
  timers_.push_back(std::move(timer));
  profiler_.NoteQueueDepth(/*maintenance=*/true, timers_.size());
  work_cv_.notify_all();
}

void ThreadedNetwork::WorkerLoop(uint32_t index) {
  std::unique_lock<std::mutex> lock(mutex_);
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

    NetworkPeer* handler = worker.alive ? worker.handler : nullptr;
    bool dropped = false;
    if (item.message != nullptr) {
      // In-flight loss: the pipe may have closed while the message waited.
      const PipeState* pipe =
          FindPipeLocked(item.message->src, item.message->dst);
      if (pipe == nullptr || !pipe->open || handler == nullptr) {
        stats_.RecordDrop(*item.message);
        dropped = true;
      }
    }
    const bool profiling = profiler_.enabled();
    CostClass cls = CostClass::kData;
    if (!dropped && handler != nullptr && item.message != nullptr) {
      // Sojourn = enqueue-to-dispatch wall time: the modelled wire delay
      // plus any real backlog behind earlier inbox items.
      if (profiling) {
        cls = ClassifyMessage(*item.message);
        profiler_.RecordSojourn(
            cls, std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - item.enqueued)
                     .count());
      }
      RecordCostRecv(*item.message);
    }
    if (!dropped && handler != nullptr) {
      // Run the handler without the lock; the peer's serialization is
      // preserved because only this thread drains this inbox.
      lock.unlock();
      std::chrono::steady_clock::time_point service_start;
      if (profiling && item.message != nullptr) {
        service_start = std::chrono::steady_clock::now();
      }
      if (item.message != nullptr) {
        Tracer& tracer = Tracer::Global();
        if (tracer.enabled()) {
          // The threaded runtime's "virtual" clock is wall microseconds
          // since the network epoch, so both axes stay meaningful.
          Tracer::SetVirtualTime(now_us());
          uint64_t span = tracer.BeginSpan(index, "net.deliver");
          tracer.AddArg(span, "type",
                        MessageTypeName(item.message->type));
          tracer.AddArg(span, "bytes",
                        std::to_string(item.message->WireSize()));
          tracer.LinkDelivery(item.message->trace_id, span);
          handler->HandleMessage(*item.message);
          Tracer::SetVirtualTime(now_us());
          tracer.EndSpan(span);
        } else {
          handler->HandleMessage(*item.message);
        }
        if (profiling) {
          profiler_.RecordService(
              cls, std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - service_start)
                       .count());
        }
      } else if (item.pipe_closed) {
        handler->HandlePipeClosed(item.closed_other);
      }
      lock.lock();
    }
    ++events_processed_;
    --busy_;
    if (busy_ == 0) quiescent_cv_.notify_all();
  }
}

void ThreadedNetwork::TimerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
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
  std::unique_lock<std::mutex> lock(mutex_);
  uint64_t before = events_processed_;
  quiescent_cv_.wait(lock, [this] { return busy_ == 0 || shutdown_; });
  return events_processed_ - before;
}

uint64_t ThreadedNetwork::RunUntil(int64_t deadline_us) {
  std::unique_lock<std::mutex> lock(mutex_);
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
