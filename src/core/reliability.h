// At-least-once delivery for the coDB protocol messages.
//
// The fault-injection layer (net/fault.h) makes the network drop,
// duplicate and reorder traffic; this module restores the exactly-once
// *processing* the managers assume, with the classic pair:
//
//   * sender side (ReliableSender): every protocol message of a flow is
//     stamped with a per-(flow, destination) monotonically increasing
//     sequence number and retransmitted with exponential backoff until a
//     kDeliveryAck receipt arrives or the retry budget is exhausted;
//   * receiver side (DupFilter): a (flow, source, seq) triple is processed
//     at most once; re-deliveries are receipt-acked again and dropped, so
//     retransmissions are idempotent.
//
// The delivery receipt is deliberately distinct from the Dijkstra–Scholten
// kUpdateAck: a D-S ack is *deferred* until a whole subtree quiesces, so
// using it to cancel retransmission would make slow-but-alive subtrees
// look like losses. Receipts are immediate, carry no termination
// semantics, and are themselves never sequenced or retransmitted (a lost
// receipt just means one more retransmission, which the DupFilter
// absorbs). D-S acks and completion floods, on the other hand, ARE
// sequenced and retransmitted: losing one would permanently wedge the
// sender's deficit.
//
// When the sender gives up on a *basic* message, its D-S ack will never
// arrive; the manager cancels the corresponding unit of deficit
// (TerminationDetector::CancelOne) so the flow still terminates — with
// partial coverage, like a lost pipe.
//
// Resends are counted once, as messages (`*.retransmits`); their bytes
// are the network cost ledger's `retx` class (obs/cost_ledger.h), which
// the Message::retransmit flag selects.

#ifndef CODB_CORE_RELIABILITY_H_
#define CODB_CORE_RELIABILITY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/protocol.h"
#include "net/network_interface.h"
#include "obs/metrics.h"

namespace codb {

struct ReliabilityOptions {
  // Off by default: the fault-free runtimes keep their historical message
  // counts and the managers behave exactly as before.
  bool enabled = false;
  // First retransmission fires after this delay; each further one waits
  // twice as long as the one before.
  int64_t retransmit_base_us = 50'000;
  int max_retries = 5;
  // Root-side deadline for a whole flow; 0 disables. A flow still running
  // at the deadline is aborted and reported as partial.
  int64_t flow_deadline_us = 0;
};

class ReliableSender {
 public:
  // Invoked when the retry budget for a message is exhausted. `basic`
  // mirrors the Send() argument: true means a unit of termination deficit
  // must be cancelled by the owner.
  using GiveUpFn = std::function<void(const FlowId& flow, PeerId dst,
                                      bool basic)>;

  // Counters may be null. All pointers must outlive the sender. A resend
  // goes out marked Message::retransmit, so the cost ledger charges its
  // bytes to the `retx` class, apart from the payload traffic it protects.
  ReliableSender(NetworkBase* network, ReliabilityOptions options,
                 GiveUpFn on_give_up, Counter* retransmits = nullptr,
                 Counter* give_ups = nullptr);

  // Stamps the next per-(flow, dst) sequence number, sends, and arms the
  // retransmission timer. With reliability disabled this degrades to a
  // plain network send (seq stays 0, nothing is tracked).
  Status Send(Message message, const FlowId& flow, bool basic);

  // A kDeliveryAck receipt arrived: stop retransmitting that message.
  void OnDeliveryAck(const FlowId& flow, PeerId from, uint32_t acked_seq);

  // The pipe to `peer` is gone; pending messages towards it are dropped
  // without a give-up callback (the owner cancels deficit via OnPeerLost).
  void OnPeerLost(PeerId peer);

  const ReliabilityOptions& options() const { return shared_->options; }
  uint64_t pending_count() const;

  // Expires when the owning manager is destroyed; timer closures that
  // touch the manager (e.g. flow deadlines) check this before firing.
  std::weak_ptr<void> liveness() const { return shared_; }

 private:
  struct Key {
    FlowId flow;
    uint32_t dst = 0;
    uint32_t seq = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Pending {
    Message message;  // retransmitted verbatim, same seq
    bool basic = false;
    int retries = 0;
    int64_t next_backoff_us = 0;
  };
  struct Shared {
    mutable std::mutex mutex;
    NetworkBase* network = nullptr;
    ReliabilityOptions options;
    GiveUpFn on_give_up;
    Counter* retransmits = nullptr;
    Counter* give_ups = nullptr;
    std::map<Key, Pending> pending;
    std::map<std::pair<FlowId, uint32_t>, uint32_t> next_seq;
  };

  // Schedules the retransmission check for `key` after `delay_us`. The
  // closure holds only a weak reference: once the owning manager dies
  // (e.g. reconfiguration rebuilds it) the timer is a no-op.
  static void Arm(const std::shared_ptr<Shared>& shared, const Key& key,
                  int64_t delay_us);

  std::shared_ptr<Shared> shared_;
};

// Receiver-side ordering and duplicate suppression. Sequence numbers per
// (flow, src) are contiguous, so the receiver can restore the sender's
// order exactly: the next expected seq is delivered, anything below it is
// a duplicate, anything above it is parked until the gap fills (a drop's
// retransmission is on its way). Ordering matters beyond deduplication —
// the link-closing induction assumes a LinkClosed never overtakes the
// data sent before it, which drop+retransmit would otherwise violate.
//
// State is kept for the lifetime of the manager (not just the flow): a
// retransmission that lands after the flow completed must still be
// recognized as already-processed, or it would re-engage the node and
// corrupt the converged database.
class DupFilter {
 public:
  enum class Verdict {
    kDeliver,    // next in order: process it (the cursor advances)
    kDuplicate,  // already delivered (or already parked): drop it
    kHold,       // a gap precedes it: park it via Hold()
  };

  // Classifies (flow, src, seq). seq 0 (unsequenced sender) is always
  // delivered.
  Verdict Check(const FlowId& flow, PeerId src, uint32_t seq);

  // Parks an out-of-order message until the gap before it fills.
  void Hold(const FlowId& flow, PeerId src, Message message);

  // Removes and returns the parked message that is now next in order, if
  // any. The caller feeds it back through its message handler, whose
  // Check() then classifies it as an in-order delivery.
  std::optional<Message> NextReady(const FlowId& flow, PeerId src);

  uint64_t held_count() const;

 private:
  struct Channel {
    uint32_t next = 1;                 // lowest seq not yet delivered
    std::map<uint32_t, Message> held;  // parked out-of-order arrivals
  };
  std::map<std::pair<FlowId, uint32_t>, Channel> channels_;
};

}  // namespace codb

#endif  // CODB_CORE_RELIABILITY_H_
