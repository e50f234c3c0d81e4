// ThreadedNetwork: a real concurrent runtime behind the NetworkBase
// interface.
//
// Where the simulator (net/network.h) interleaves everything on one
// virtual timeline, this implementation gives every peer its own delivery
// thread draining a FIFO inbox, plus a timer thread for scheduled actions.
// It demonstrates that the coDB protocols — diffusing computations,
// acknowledgements, link closing — do not depend on simulator determinism:
// the integration tests run the same global updates over real threads and
// check the same oracle.
//
// Concurrency model:
//   * one worker thread per peer; a peer never handles two events at once
//     (messages and pipe-closed notifications are serialized through its
//     inbox);
//   * distinct peers run genuinely in parallel;
//   * scheduled actions (retransmissions and their give-ups, flow
//     deadlines, heartbeat beacons) run on the timer thread, concurrently
//     with the peer's own handlers, so whatever they enter locks for
//     itself (DESIGN.md §10);
//   * peer-facing API calls (Node::StartGlobalUpdate etc.) must happen
//     while the network is quiescent — before traffic starts or after
//     Run() returns (Run() blocks until every inbox is empty, no handler
//     is executing and no timer is due, and synchronizes memory with the
//     workers);
//   * pipe latency is honoured by delaying delivery; bandwidth-queueing
//     is modelled per pipe by the same Pipe code the simulator uses.
//
// Peers, pipes, faults, accounting and delivery live in NetworkBase
// (net/network_interface.h); this class is the worker threads, their
// inboxes, the timer thread and the quiescence wait.

#ifndef CODB_NET_THREADED_NETWORK_H_
#define CODB_NET_THREADED_NETWORK_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "net/network_interface.h"

namespace codb {

class ThreadedNetwork : public NetworkBase {
 public:
  ThreadedNetwork();
  ~ThreadedNetwork() override;
  ThreadedNetwork(const ThreadedNetwork&) = delete;
  ThreadedNetwork& operator=(const ThreadedNetwork&) = delete;

  using NetworkBase::Run;

  void ScheduleAt(int64_t time_us, std::function<void()> action) override;
  void ScheduleMaintenance(int64_t delay_us,
                           std::function<void()> action) override;

  // Wall-clock microseconds since construction.
  int64_t now_us() const override;

  // Blocks until quiescent; returns the number of events (messages +
  // notifications + timer actions) processed since the previous Run().
  // Pending maintenance timers/messages do not count as busy — they keep
  // firing on their own threads but never hold Run() open.
  uint64_t Run(uint64_t max_events) override;

  // Blocks until the wall clock reaches `deadline_us` (now_us() scale),
  // letting maintenance traffic fire, then drains to quiescence.
  uint64_t RunUntil(int64_t deadline_us) override;

 protected:
  Status Enqueue(std::unique_ptr<Message> message, int64_t sent_us,
                 int64_t arrival_us) override;
  void NotifyPipeClosed(PeerId peer, PeerId other) override;
  // Starts the peer's delivery thread.
  void OnJoin(PeerId id) override;

 private:
  struct InboxItem {
    // Null for a pipe-closed notification about `closed_other`.
    std::unique_ptr<Message> message;
    PeerId closed_other;
    std::chrono::steady_clock::time_point due;
    int64_t sent_us = 0;  // now_us() at the send, for the sojourn
    // Maintenance items do not count toward busy_ while queued; the
    // worker counts them only while their handler is executing.
    bool maintenance = false;
  };

  struct Worker {
    std::thread thread;
    std::deque<InboxItem> inbox;  // guarded by mu_
  };

  struct Timer {
    std::chrono::steady_clock::time_point due;
    std::function<void()> action;
    bool maintenance = false;  // pending: not busy_; executing: busy_
  };

  void WorkerLoop(uint32_t index);
  void TimerLoop();
  void PushInboxLocked(uint32_t peer, InboxItem item);
  void PushTimer(Timer timer);

  std::chrono::steady_clock::time_point epoch_;

  // Everything below is guarded by mu_ (NetworkBase).
  std::condition_variable work_cv_;       // workers + timer wait on this
  std::condition_variable quiescent_cv_;  // Run() waits on this
  std::vector<Timer> timers_;
  // Items enqueued-but-not-finished (inbox entries + running handlers +
  // pending timers). Quiescent == 0.
  uint64_t busy_ = 0;
  uint64_t events_processed_ = 0;
  bool shutdown_ = false;

  // The threads last: they use everything above. Indexed by PeerId; a
  // departed peer's worker keeps draining its inbox, so traffic still in
  // flight to it is counted as lost by Deliver().
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread timer_thread_;
};

}  // namespace codb

#endif  // CODB_NET_THREADED_NETWORK_H_
