// The network abstraction the coDB layers are written against.
//
// Two runtimes exist:
//   * Network (net/network.h) — the deterministic discrete-event simulator
//     used by tests, benches and examples (virtual clock, reproducible);
//   * ThreadedNetwork (net/threaded_network.h) — a real concurrent runtime
//     with one delivery thread per peer and wall-clock time, demonstrating
//     that the protocols do not depend on simulator determinism.
//
// NetworkBase is the transport core both share: the peer and pipe tables,
// the fault profiles, the cost ledger, Send (validation, fault draw,
// accounting, trace id, arrival model) and delivery (in-flight loss
// check, receive accounting, profiler, `net.deliver` span). A runtime
// supplies only the clock, the scheduling of messages and timers, and the
// run loop.
//
// Threading contract: each peer's messages are delivered sequentially (a
// peer never handles two messages concurrently), distinct peers run
// concurrently, and peer-facing API calls (starting updates/queries,
// seeding data) must happen while the network is quiescent — i.e. before
// traffic starts or after Run()/a quiescence wait returns. The simulator
// satisfies this trivially.

#ifndef CODB_NET_NETWORK_INTERFACE_H_
#define CODB_NET_NETWORK_INTERFACE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/peer_id.h"
#include "net/pipe.h"
#include "obs/cost_ledger.h"
#include "obs/queue_profiler.h"
#include "util/status.h"

namespace codb {

// Implemented by anything that lives on the network (core::Node, the
// super-peer, test fixtures). See the threading contract above.
class NetworkPeer {
 public:
  virtual ~NetworkPeer() = default;
  virtual void HandleMessage(const Message& message) = 0;

  // Notification that the pipe to `other` is gone (explicit close or peer
  // death) — the moral equivalent of a JXTA pipe-closed event. In-flight
  // traffic on the pipe is lost. Delivered on the peer's handler context.
  virtual void HandlePipeClosed(PeerId other) { (void)other; }
};

class NetworkBase {
 public:
  virtual ~NetworkBase() = default;

  // -- membership ---------------------------------------------------------

  // Joins under `name`; the peer pointer must outlive the network or be
  // removed with Leave first.
  PeerId Join(const std::string& name, NetworkPeer* peer);

  // Removes the peer; its pipes close (the survivors are notified) and
  // traffic still in flight to it is lost.
  Status Leave(PeerId id);

  bool IsAlive(PeerId id) const;
  std::string NameOf(PeerId id) const;
  Result<PeerId> FindByName(const std::string& name) const;
  std::vector<PeerId> AlivePeers() const;

  // -- pipes ----------------------------------------------------------------

  // Opens both directions with the same profile. Re-opening replaces a
  // closed pipe.
  Status OpenPipe(PeerId a, PeerId b, LinkProfile profile = LinkProfile());

  // Closes both directions. In-flight messages on the pipe are dropped.
  Status ClosePipe(PeerId a, PeerId b);

  // Replaces the fault profile on both directions of the a<->b pipe and
  // restarts its deterministic sequence. Used by torture tests and churn
  // scripts (including partitions: FaultProfile::Partition() is 100% loss
  // with no pipe-closed notification).
  Status SetFaultProfile(PeerId a, PeerId b, const FaultProfile& fault);
  // Applies `fault` to every currently open pipe direction and to pipes
  // opened later without an explicit profile override.
  void SetDefaultFaultProfile(const FaultProfile& fault);

  bool HasPipe(PeerId from, PeerId to) const;
  std::vector<PeerId> Neighbors(PeerId id) const;
  size_t open_pipe_count() const;

  // -- traffic ----------------------------------------------------------------

  // Puts `message` on the pipe src->dst. Fails with kUnavailable if the
  // sender is dead or no open pipe exists. The send is charged whatever
  // the fault draw, so a message the injector drops still counts.
  Status Send(Message message);

  virtual void ScheduleAt(int64_t time_us, std::function<void()> action) = 0;
  void ScheduleAfter(int64_t delay_us, std::function<void()> action) {
    ScheduleAt(now_us() + delay_us, std::move(action));
  }

  // Schedules a *maintenance* timer: like ScheduleAfter, but a pending
  // maintenance action does not keep Run() from declaring quiescence —
  // it stays queued, unexecuted, until a later Run()/RunUntil() reaches
  // its due time. This is what lets a heartbeat session re-arm itself
  // every period without turning Run() into an infinite loop. Messages
  // sent with `Message::maintenance` set get the same treatment.
  virtual void ScheduleMaintenance(int64_t delay_us,
                                   std::function<void()> action) = 0;

  // Current time in microseconds: virtual for the simulator, wall-clock
  // since construction for the threaded runtime.
  virtual int64_t now_us() const = 0;

  // Drives the network until quiescent (no queued traffic, no running
  // handlers, no due timers) or `max_events`; returns events processed.
  // The simulator executes events inline; the threaded runtime blocks the
  // caller until the workers drain.
  virtual uint64_t Run(uint64_t max_events) = 0;
  uint64_t Run() { return Run(kDefaultEventCap); }

  // Drives the network — INCLUDING maintenance events — until the clock
  // reaches `deadline_us` (absolute, same scale as now_us()). On the
  // simulator the virtual clock jumps from event to event and lands on
  // the deadline; on the threaded runtime this blocks the caller for the
  // corresponding wall time. Returns events processed. This is how
  // membership tests and churn benches advance heartbeat time.
  virtual uint64_t RunUntil(int64_t deadline_us) = 0;
  uint64_t RunFor(int64_t duration_us) {
    return RunUntil(now_us() + duration_us);
  }

  // The network's cost ledger (obs/cost_ledger.h): every message sent,
  // delivered or lost, per wire type and per cost class. Always on.
  CostLedger& stats() { return stats_; }
  const CostLedger& stats() const { return stats_; }

  // -- observability (DESIGN.md §12) ---------------------------------------
  // Per-peer ledger: besides the network's own ledger, the core records
  // the send side of every message whose src is `id` into `ledger`, and
  // the receive side of every delivery to `id`. Nodes attach their
  // statistical module's ledger here so the per-class byte breakdown
  // rides the kStatsReport trailer. Attach while the network is quiescent
  // (setup time): the ledger table itself is not guarded.
  void AttachCostLedger(PeerId id, CostLedger* ledger) {
    if (!id.valid()) return;
    if (ledgers_.size() <= id.value) ledgers_.resize(id.value + 1, nullptr);
    ledgers_[id.value] = ledger;
  }

  // The event-loop profiler; call profiler().Enable() to turn it on.
  QueueProfiler& profiler() { return profiler_; }
  const QueueProfiler& profiler() const { return profiler_; }

  static constexpr uint64_t kDefaultEventCap = 50'000'000;

 protected:
  // -- runtime hooks ------------------------------------------------------

  // Schedules one copy of a sent message to arrive at `arrival_us`; the
  // runtime hands it to Deliver() then. `sent_us` is the send time, both
  // on the now_us() scale. Called with mu_ held. A runtime may refuse the
  // message; Send returns the refusal, the send stays charged.
  virtual Status Enqueue(std::unique_ptr<Message> message, int64_t sent_us,
                         int64_t arrival_us) = 0;

  // Hands `peer` the news that its pipe to `other` is gone; the runtime
  // calls DeliverPipeClosed() on the peer's handler context. Called
  // without mu_ held.
  virtual void NotifyPipeClosed(PeerId peer, PeerId other) = 0;

  // Peer `id` has joined. Called with mu_ held.
  virtual void OnJoin(PeerId id) { (void)id; }

  // -- delivery, called by the runtimes without mu_ held -------------------

  // Hands `message` to its destination's handler unless it was lost in
  // flight (destination gone or pipe closed since the send).
  void Deliver(const Message& message, int64_t sent_us);
  void DeliverPipeClosed(PeerId peer, PeerId other);

  // Guards the peer and pipe tables and the default fault profile; the
  // threaded runtime also guards its inboxes and timers with it. Never
  // held while a peer's handler runs.
  mutable std::mutex mu_;
  QueueProfiler profiler_;

 private:
  struct PeerEntry {
    std::string name;
    NetworkPeer* handler = nullptr;
    bool alive = false;
  };

  bool IsAliveLocked(PeerId id) const {
    return id.valid() && id.value < peers_.size() && peers_[id.value].alive;
  }
  Pipe* FindPipeLocked(PeerId from, PeerId to);
  bool HasPipeLocked(PeerId from, PeerId to) const;

  // The one recording call of Send: charges `message` and the faults
  // drawn for it to the network's ledger, and the send to the sender's
  // attached ledger.
  void RecordSend(const Message& message,
                  const FaultInjector::Decision& fault);
  // The one recording call of Deliver: charges a delivery to the
  // network's ledger and the receiver's attached ledger, or a loss in
  // flight (`lost`) to the network's.
  void RecordArrival(const Message& message, bool lost);
  CostLedger* AttachedLedger(PeerId id) const {
    return id.value < ledgers_.size() ? ledgers_[id.value] : nullptr;
  }

  std::vector<PeerEntry> peers_;
  std::map<std::pair<uint32_t, uint32_t>, Pipe> pipes_;
  // Open-pipe adjacency (both directions), so Neighbors() is O(degree)
  // rather than a scan of every pipe — the difference between beacon
  // ticks costing O(E) and O(n·E) per period at thousand-peer scale.
  std::vector<std::set<uint32_t>> adjacency_;
  FaultProfile default_fault_;
  CostLedger stats_;
  std::vector<CostLedger*> ledgers_;  // by peer id; null when unattached
};

}  // namespace codb

#endif  // CODB_NET_NETWORK_INTERFACE_H_
