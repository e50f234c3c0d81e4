// The network abstraction the coDB layers are written against.
//
// Two implementations exist:
//   * Network (net/network.h) — the deterministic discrete-event simulator
//     used by tests, benches and examples (virtual clock, reproducible);
//   * ThreadedNetwork (net/threaded_network.h) — a real concurrent runtime
//     with one delivery thread per peer and wall-clock time, demonstrating
//     that the protocols do not depend on simulator determinism.
//
// Threading contract: each peer's messages are delivered sequentially (a
// peer never handles two messages concurrently), distinct peers run
// concurrently, and peer-facing API calls (starting updates/queries,
// seeding data) must happen while the network is quiescent — i.e. before
// traffic starts or after Run()/a quiescence wait returns. The simulator
// satisfies this trivially.

#ifndef CODB_NET_NETWORK_INTERFACE_H_
#define CODB_NET_NETWORK_INTERFACE_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/peer_id.h"
#include "net/pipe.h"
#include "net/transport_stats.h"
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
  virtual PeerId Join(const std::string& name, NetworkPeer* peer) = 0;
  virtual Status Leave(PeerId id) = 0;
  virtual bool IsAlive(PeerId id) const = 0;
  virtual std::string NameOf(PeerId id) const = 0;
  virtual Result<PeerId> FindByName(const std::string& name) const = 0;
  virtual std::vector<PeerId> AlivePeers() const = 0;

  // -- pipes ----------------------------------------------------------------
  virtual Status OpenPipe(PeerId a, PeerId b, LinkProfile profile) = 0;
  Status OpenPipe(PeerId a, PeerId b) {
    return OpenPipe(a, b, LinkProfile());
  }
  virtual Status ClosePipe(PeerId a, PeerId b) = 0;

  // Replaces the fault profile on both directions of the a<->b pipe and
  // restarts its deterministic sequence. Used by torture tests and churn
  // scripts (including partitions: FaultProfile::Partition() is 100% loss
  // with no pipe-closed notification).
  virtual Status SetFaultProfile(PeerId a, PeerId b,
                                 const FaultProfile& fault) = 0;
  // Applies `fault` to every currently open pipe direction and to pipes
  // opened later without an explicit profile override.
  virtual void SetDefaultFaultProfile(const FaultProfile& fault) = 0;

  virtual bool HasPipe(PeerId from, PeerId to) const = 0;
  virtual std::vector<PeerId> Neighbors(PeerId id) const = 0;
  virtual size_t open_pipe_count() const = 0;

  // -- traffic ----------------------------------------------------------------
  virtual Status Send(Message message) = 0;
  virtual void ScheduleAt(int64_t time_us, std::function<void()> action) = 0;
  virtual void ScheduleAfter(int64_t delay_us,
                             std::function<void()> action) = 0;

  // Schedules a *maintenance* timer: like ScheduleAfter, but a pending
  // maintenance action does not keep Run() from declaring quiescence —
  // it stays queued, unexecuted, until a later Run()/RunUntil() reaches
  // its due time. This is what lets a heartbeat session re-arm itself
  // every period without turning Run() into an infinite loop. Messages
  // sent with `Message::maintenance` set get the same treatment.
  virtual void ScheduleMaintenance(int64_t delay_us,
                                   std::function<void()> action) {
    ScheduleAfter(delay_us, action);
  }

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

  virtual TransportStats& stats() = 0;
  virtual const TransportStats& stats() const = 0;

  // -- observability (DESIGN.md §12) ---------------------------------------
  // Cost ledgers are attach-based and off by default: until one is
  // attached, every dispatch pays one relaxed atomic load + branch and
  // nothing else. Attach while the network is quiescent (setup time) —
  // the ledger table itself is not guarded.
  //
  // Per-peer ledger: the runtime records the send side of every message
  // whose src is `id` and the receive side of every delivery to `id`.
  // Nodes attach their statistical module's ledger here so the per-class
  // byte breakdown rides the kStatsReport trailer.
  void AttachCostLedger(PeerId id, CostLedger* ledger) {
    if (!id.valid()) return;
    if (ledgers_.size() <= id.value) ledgers_.resize(id.value + 1, nullptr);
    ledgers_[id.value] = ledger;
    cost_enabled_.store(true, std::memory_order_release);
  }

  // Network-wide ledger: every send/delivery is recorded regardless of
  // endpoint. Benches use this for exact totals without a collection.
  void SetGlobalCostLedger(CostLedger* ledger) {
    global_ledger_ = ledger;
    if (ledger != nullptr) {
      cost_enabled_.store(true, std::memory_order_release);
    }
  }
  CostLedger* global_cost_ledger() const { return global_ledger_; }

  // The event-loop profiler; call profiler().Enable() to turn it on.
  QueueProfiler& profiler() { return profiler_; }
  const QueueProfiler& profiler() const { return profiler_; }

  static constexpr uint64_t kDefaultEventCap = 50'000'000;

 protected:
  bool CostEnabled() const {
    return cost_enabled_.load(std::memory_order_acquire);
  }
  void RecordCostSend(const Message& message) {
    if (!CostEnabled()) return;
    if (global_ledger_ != nullptr) global_ledger_->RecordSend(message);
    if (message.src.value < ledgers_.size() &&
        ledgers_[message.src.value] != nullptr) {
      ledgers_[message.src.value]->RecordSend(message);
    }
  }
  void RecordCostRecv(const Message& message) {
    if (!CostEnabled()) return;
    if (global_ledger_ != nullptr) global_ledger_->RecordRecv(message);
    if (message.dst.value < ledgers_.size() &&
        ledgers_[message.dst.value] != nullptr) {
      ledgers_[message.dst.value]->RecordRecv(message);
    }
  }

  QueueProfiler profiler_;

 private:
  std::vector<CostLedger*> ledgers_;
  CostLedger* global_ledger_ = nullptr;
  std::atomic<bool> cost_enabled_{false};
};

}  // namespace codb

#endif  // CODB_NET_NETWORK_INTERFACE_H_
