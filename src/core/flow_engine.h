// The diffusing-computation engine under both DBM managers.
//
// The paper runs global updates and query answering alike as "an
// extension of the 'diffusing computation' approach" (section 3). This
// base class is that one machine; UpdateManager and QueryManager derive
// from it and keep only their protocol handlers.
//
//   * Envelope. Every message of the engine's flows arrives with the
//     FlowId the node peeked to route it, and that one id serves the whole
//     envelope: the delivery receipt, duplicate suppression and in-order
//     release (DupFilter), Dijkstra–Scholten engagement on basic messages,
//     D-S acks, and a quiescence check of that flow only.
//   * Sending. Basic messages book termination deficit; the completion
//     floods are sequenced and retransmitted but book none.
//   * Roots. A flow started here is registered with the detector and, with
//     a flow deadline, aborted with partial coverage if it overruns.
//   * Churn. Pipe loss or eviction cancels retransmissions and deficits
//     towards the lost peer, then sweeps every flow: the one event that
//     touches them all.
//   * Shared context. Liveness filter, peer-name cache, local-consistency
//     check, and the compiled incoming rules.

#ifndef CODB_CORE_FLOW_ENGINE_H_
#define CODB_CORE_FLOW_ENGINE_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/link_graph.h"
#include "core/protocol.h"
#include "core/reliability.h"
#include "core/statistics.h"
#include "core/termination.h"
#include "net/network_interface.h"
#include "query/evaluator.h"
#include "wrapper/wrapper.h"

namespace codb {

class FlowEngine {
 public:
  // What a node hands each of its engines. Every pointer must outlive the
  // engine; `node_name` is the node's name in `config`.
  struct Context {
    NetworkBase* network = nullptr;
    PeerId self;
    std::string node_name;
    Wrapper* wrapper = nullptr;
    const NetworkConfig* config = nullptr;
    const LinkGraph* link_graph = nullptr;
    StatisticsModule* stats = nullptr;
    NullMinter* minter = nullptr;
    // At-least-once delivery (core/reliability.h).
    ReliabilityOptions reliability;
  };

  virtual ~FlowEngine() = default;
  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  // Compiles this node's incoming links. Must succeed before any traffic.
  virtual Status Init();

  // Routed by the node: every message of this engine's flows (protocol
  // messages, D-S acks and delivery receipts) with the FlowId peeked from
  // its payload.
  void HandleMessage(const FlowId& flow, const Message& message);

  // Churn notification from the node. Also the membership eviction path:
  // an evicted peer gets the same treatment as a snapped pipe.
  void HandlePipeClosed(PeerId other);

  // Liveness predicate supplied by the node's membership layer: peers for
  // which it returns false (evicted) are no flood targets and count as
  // permanently quiet exporters. Null = everyone reachable is presumed
  // alive (the historical behaviour).
  void SetPresumedAlive(std::function<bool(PeerId)> predicate) {
    presumed_alive_ = std::move(predicate);
  }

  // Unacked sequenced messages still held for retransmission. The
  // eviction tests assert this drops to zero the moment a dead peer is
  // evicted, instead of draining through the full retry backoff.
  uint64_t PendingReliable() const { return reliable_.pending_count(); }

 protected:
  // `scope` names the engine's metrics ("update.*" or "query.*").
  FlowEngine(FlowId::Scope scope, const Context& context);

  // -- manager hooks, all called under mu_ ---------------------------------

  // One in-order, first-time protocol message of `flow`; never an ack or
  // a receipt. A basic message has already engaged the detector.
  virtual void Dispatch(const FlowId& flow, const Message& message) = 0;

  // A flow rooted here is over: it terminated, or its deadline expired
  // (the report's `aborted` flag is then set). Called once per root.
  virtual void FinishRoot(const FlowId& flow) = 0;

  // A D-S ack of `flow` from `from`. Overrides instrument, then call this.
  virtual void OnAck(const FlowId& flow, PeerId from);

  // After each delivered message, with the engine's wall time for it.
  virtual void OnHandled(const FlowId& /*flow*/, MessageType /*type*/,
                         int64_t /*wall_us*/) {}

  // After a peer loss cancelled its deficits, before the all-flows sweep.
  virtual void OnPeerLost() {}

  // -- services for the managers, mu_ held ---------------------------------

  // Makes this node the root of `flow`, runs `first_step` (the flow's
  // initial sends) and checks the flow for quiescence.
  void RunRoot(const FlowId& flow, const std::function<void()>& first_step);

  // Sends a basic message and books the deficit.
  Status SendBasic(const FlowId& flow, PeerId dst, MessageType type,
                   std::vector<uint8_t> payload);

  // Sends a completion message of `flow` to each of `targets` except
  // `skip`. Not basic (the computation is over), but sequenced and
  // retransmitted: a lost completion would leave per-flow state behind.
  void Flood(const FlowId& flow, MessageType type,
             const std::vector<uint8_t>& payload,
             const std::vector<PeerId>& targets, PeerId skip);

  Result<PeerId> ResolvePeer(const std::string& node_name) const;

  // Alive, pipe-connected and not evicted.
  bool Reachable(PeerId peer) const;

  // Reachable rule acquaintances (flood targets).
  std::vector<PeerId> Acquaintances() const;

  // True when this node's store violates its own key constraints.
  bool LocallyInconsistent() const;

  // The flow tag of a trace span or instant: `flow`'s string while
  // tracing is on, empty otherwise (a disabled tracer records nothing),
  // so untraced handlers never format flow ids.
  static std::string TraceTag(const FlowId& flow);

  // Monitor guarding the engine's handlers against the network's timer
  // thread (DESIGN.md §10): handlers and API calls arrive under
  // Node::mutex_, but retransmit give-ups and flow deadlines enter from a
  // timer without it. Recursive because the single-threaded simulator
  // delivers nested callbacks (pipe-closed, give-ups) from within a
  // handler.
  mutable std::recursive_mutex mu_;

  NetworkBase* network_;
  PeerId self_;
  std::string node_name_;
  Wrapper* wrapper_;
  const NetworkConfig* config_;
  const LinkGraph* link_graph_;
  StatisticsModule* stats_;
  NullMinter* minter_;
  std::map<std::string, CoordinationRule> compiled_incoming_;

 private:
  // Receipt-acks a sequenced message, filters duplicates and parks
  // out-of-order arrivals. Returns false when the message must not be
  // processed now (already seen, or a gap precedes it).
  bool AcceptDelivery(const FlowId& flow, const Message& message);

  // Processes parked arrivals from `src` that the last delivery made
  // next-in-order.
  void DrainReady(const FlowId& flow, PeerId src);

  // Flow-deadline expiry at the root: reports the flow aborted and
  // finishes it with whatever data arrived. No-op once it terminated.
  void AbortIfIncomplete(const FlowId& flow);

  std::function<bool(PeerId)> presumed_alive_;  // null = no membership
  Counter* m_started_;
  Counter* m_dups_suppressed_;
  Counter* m_root_terminations_;
  Counter* m_aborted_;
  TerminationDetector termination_;
  ReliableSender reliable_;
  DupFilter dup_filter_;
  mutable std::map<std::string, PeerId> peer_cache_;
};

}  // namespace codb

#endif  // CODB_CORE_FLOW_ENGINE_H_
