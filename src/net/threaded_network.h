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
//     is modelled per pipe like the simulator.

#ifndef CODB_NET_THREADED_NETWORK_H_
#define CODB_NET_THREADED_NETWORK_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

  using NetworkBase::OpenPipe;
  using NetworkBase::Run;

  PeerId Join(const std::string& name, NetworkPeer* peer) override;
  Status Leave(PeerId id) override;
  bool IsAlive(PeerId id) const override;
  std::string NameOf(PeerId id) const override;
  Result<PeerId> FindByName(const std::string& name) const override;
  std::vector<PeerId> AlivePeers() const override;

  Status OpenPipe(PeerId a, PeerId b, LinkProfile profile) override;
  Status ClosePipe(PeerId a, PeerId b) override;
  Status SetFaultProfile(PeerId a, PeerId b,
                         const FaultProfile& fault) override;
  void SetDefaultFaultProfile(const FaultProfile& fault) override;
  bool HasPipe(PeerId from, PeerId to) const override;
  std::vector<PeerId> Neighbors(PeerId id) const override;
  size_t open_pipe_count() const override;

  Status Send(Message message) override;
  void ScheduleAt(int64_t time_us, std::function<void()> action) override;
  void ScheduleAfter(int64_t delay_us,
                     std::function<void()> action) override;
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

  TransportStats& stats() override { return stats_; }
  const TransportStats& stats() const override { return stats_; }

 private:
  struct InboxItem {
    // Exactly one of the three is meaningful.
    std::unique_ptr<Message> message;
    bool pipe_closed = false;
    PeerId closed_other;
    std::chrono::steady_clock::time_point due;
    // When the item entered the inbox; the gap to dispatch is the queue
    // sojourn (modelled wire delay + any worker backlog) the profiler
    // reports.
    std::chrono::steady_clock::time_point enqueued;
    // Maintenance items do not count toward busy_ while queued; the
    // worker counts them only while their handler is executing.
    bool maintenance = false;
  };

  struct Worker {
    std::string name;
    NetworkPeer* handler = nullptr;
    bool alive = false;
    std::thread thread;
    std::deque<InboxItem> inbox;  // guarded by mutex_
  };

  struct PipeState {
    LinkProfile profile;
    bool open = false;
    // Bandwidth queueing: when the link is next free, in now_us() time.
    int64_t busy_until_us = 0;
    // Same decision sequence as the simulator's Pipe for identical
    // per-pipe traffic (guarded by mutex_, like the rest of the state).
    FaultInjector injector;
  };

  struct Timer {
    std::chrono::steady_clock::time_point due;
    std::function<void()> action;
    bool maintenance = false;  // pending: not busy_; executing: busy_
  };

  void WorkerLoop(uint32_t index);
  void TimerLoop();
  void EnqueueLocked(uint32_t peer, InboxItem item);
  void NotifyPipeClosedLocked(PeerId peer, PeerId other);
  const PipeState* FindPipeLocked(PeerId from, PeerId to) const;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;       // workers + timer wait on this
  std::condition_variable quiescent_cv_;  // Run() waits on this

  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<std::pair<uint32_t, uint32_t>, PipeState> pipes_;
  FaultProfile default_fault_;  // guarded by mutex_
  std::vector<Timer> timers_;
  std::thread timer_thread_;

  // Items enqueued-but-not-finished (inbox entries + running handlers +
  // pending timers). Quiescent == 0. Guarded by mutex_.
  uint64_t busy_ = 0;
  uint64_t events_processed_ = 0;
  bool shutdown_ = false;

  std::chrono::steady_clock::time_point epoch_;
  TransportStats stats_;  // guarded by mutex_
};

}  // namespace codb

#endif  // CODB_NET_THREADED_NETWORK_H_
