#include "core/flow_executor.h"

namespace codb {

FlowExecutor::FlowExecutor(ThreadPool* pool, NetworkBase* network)
    : pool_(pool), network_(network) {}

FlowExecutor::~FlowExecutor() { Drain(); }

void FlowExecutor::Post(const FlowId& flow, std::function<void()> task) {
  network_->BeginExternalWork();
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Strand& strand = strands_[flow];
    strand.queue.push_back(std::move(task));
    if (!strand.running) {
      strand.running = true;
      start = true;
    }
  }
  // With a worker-less pool Submit executes inline, which fully drains the
  // strand before Post returns — the sequential path, unchanged.
  if (start) pool_->Submit([this, flow] { RunStrand(flow); });
}

void FlowExecutor::RunStrand(FlowId flow) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    {
      std::deque<std::function<void()>>& queue = strands_.at(flow).queue;
      std::function<void()> task = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      task();
    }  // the task and what it captured die outside the lock
    lock.lock();
    // Erase a drained strand and report the task done in one critical
    // section: Run() returns on the report and Drain() on the erase, so
    // either way the strand is already gone (an empty strand map is the
    // no-leak invariant the teardown checks assert) and this strand no
    // longer touches the network.
    auto it = strands_.find(flow);
    const bool drained = it->second.queue.empty();
    if (drained) {
      strands_.erase(it);
      idle_cv_.notify_all();
    }
    network_->EndExternalWork();
    if (drained) return;
  }
}

size_t FlowExecutor::ActiveFlows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strands_.size();
}

void FlowExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return strands_.empty(); });
}

}  // namespace codb
