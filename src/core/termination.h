// Distributed termination detection for diffusing computations.
//
// The paper propagates queries and updates with "an extension of the
// 'diffusing computation' approach [Lynch, 1996]". This module implements
// the Dijkstra–Scholten scheme that underlies it:
//
//   * every protocol message of a flow (request, data, link-closed, query
//     request, query result) is a *basic message* and is acknowledged;
//   * the first basic message a node receives for a flow *engages* it; the
//     acknowledgement of that message is deferred until the node has no
//     outstanding unacknowledged messages of its own (its *deficit* is 0);
//   * the initiator (root) detects global termination when its own deficit
//     reaches zero — at that point no message of the flow exists anywhere.
//
// Churn: when a pipe to a peer is lost, the deficit attributable to that
// peer is cancelled and an engaged node orphaned from its parent simply
// disengages. Termination detection then covers the surviving part of the
// computation tree (see DESIGN.md §4, decision 2).

#ifndef CODB_CORE_TERMINATION_H_
#define CODB_CORE_TERMINATION_H_

#include <functional>
#include <map>

#include "core/protocol.h"
#include "net/peer_id.h"

namespace codb {

class TerminationDetector {
 public:
  // `send_ack(to, flow)` must transmit one acknowledgement; failures are
  // the caller's concern (a lost ack peer is reported via OnPeerLost).
  using SendAckFn = std::function<void(PeerId to, const FlowId& flow)>;
  // Invoked exactly once per rooted flow when it terminates.
  using TerminatedFn = std::function<void(const FlowId& flow)>;

  TerminationDetector(PeerId self, SendAckFn send_ack)
      : self_(self), send_ack_(std::move(send_ack)) {}

  // Declares this node the root of `flow`.
  void StartRoot(const FlowId& flow, TerminatedFn on_terminated);

  // Must be called for every incoming basic message of `flow`, before the
  // message is processed. Engages the node or acks immediately.
  void OnBasicMessage(const FlowId& flow, PeerId src);

  // A basic message of `flow` was successfully handed to the network.
  void OnSent(const FlowId& flow, PeerId dst);

  // An acknowledgement for `flow` arrived from `from` (the envelope's
  // source peer — i.e. a peer we previously sent a basic message to).
  void OnAck(const FlowId& flow, PeerId from);

  // The pipe to `peer` is gone: cancel outstanding deficit towards it in
  // every flow, and orphan any engagement whose parent it was.
  void OnPeerLost(PeerId peer);

  // Cancels one unit of deficit towards `dst` (the reliability layer gave
  // up retransmitting a basic message — its ack will never come). No-op
  // if nothing is outstanding towards `dst`.
  void CancelOne(const FlowId& flow, PeerId dst);

  // Deadline abort: zeroes the flow's deficit and, at the root, marks the
  // flow terminated WITHOUT firing on_terminated (the caller reports the
  // abort itself; termination callbacks stay exactly-once). A non-root
  // sends its deferred parent ack and disengages.
  void Abort(const FlowId& flow);

  // Idle check of every flow: disengages quiescent non-roots (sending the
  // deferred parent ack) and fires termination at quiescent roots. Needed
  // only after OnPeerLost, the one event that touches every flow.
  void MaybeQuiesce();

  // Idle check of `flow` alone; call after each event of that flow. Other
  // flows are left untouched.
  void MaybeQuiesce(const FlowId& flow);

  bool IsEngaged(const FlowId& flow) const;
  // True once a flow rooted here terminated or was aborted.
  bool IsTerminated(const FlowId& flow) const;
  uint64_t DeficitOf(const FlowId& flow) const;

 private:
  struct FlowState {
    bool engaged = false;
    bool root = false;
    bool terminated = false;
    bool parent_ack_pending = false;
    PeerId parent;
    uint64_t deficit = 0;
    std::map<uint32_t, uint64_t> deficit_by_peer;
    TerminatedFn on_terminated;
  };

  void Quiesce(const FlowId& flow, FlowState& state);

  PeerId self_;
  SendAckFn send_ack_;
  std::map<FlowId, FlowState> flows_;
};

}  // namespace codb

#endif  // CODB_CORE_TERMINATION_H_
