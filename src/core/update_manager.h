// The global update algorithm (paper, section 3).
//
// A global update makes every node import, through its coordination rules,
// all data reachable from its acquaintances — transitively, along *simple*
// update-propagation paths — so that subsequent local queries need no
// network access. Sketch, at a node n for update u:
//
//   join(u):      flood UpdateRequest(u) to all acquaintances (dedup by u);
//                 for every incoming link i, evaluate its body over the
//                 local store, drop the frontiers the export memory says u
//                 already shipped on i, mint fresh marked nulls for
//                 existential head variables, and ship the head tuples
//                 with path label [n].
//
//   data(u,o,T,P): T' = T \ R; R += T' (set semantics); for every incoming
//                 link i dependent on o whose importer m' is not on P∪{n},
//                 recompute i semi-naively with delta T', dedup through
//                 the export memory, and forward with label P+[n].
//
//   closing:      an incoming link i closes when n has joined, fired i's
//                 initial evaluation, and every outgoing link relevant for
//                 i is closed (received LinkClosed) or unreachable. Links
//                 on dependency cycles cannot close inductively; they close
//                 when the initiator's diffusing computation detects global
//                 quiescence and floods UpdateComplete.
//
//   incremental:  no request and no closing. The initiator evaluates its
//                 incoming links over its delta only and ships the result;
//                 a peer joins on its first data(u,...) and forwards only
//                 non-empty deltas, as above. The initiator's D-S
//                 termination ends u, and UpdateComplete follows the data
//                 edges: each peer passes it to the importers it shipped
//                 to, so exactly the peers the delta reached take part.
//
// Termination is guaranteed: path labels bound every tuple's journey by
// the number of nodes, even for cyclic rules with existential variables.

#ifndef CODB_CORE_UPDATE_MANAGER_H_
#define CODB_CORE_UPDATE_MANAGER_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/export_memory.h"
#include "core/flow_engine.h"

namespace codb {

class UpdateManager : public FlowEngine {
 public:
  struct Options {
    // T' = T \ R receiver-side dedup. Off: every received tuple is treated
    // as a delta even when already stored (ablation E6; storage stays a
    // set either way).
    bool dedup_received = true;
    // Export-memory dedup of shipped frontiers per incoming link. Off:
    // recomputed results are re-shipped every time (ablation E6).
    bool dedup_sent = true;
    // Maximum head tuples per kUpdateData message; larger result sets are
    // split into consecutive batches on the same pipe (FIFO keeps them
    // ordered). 0 = unlimited (one message per rule activation).
    size_t max_batch_tuples = 0;
    // Containment optimization: do not execute incoming links whose query
    // another rule on the same importer/exporter pair subsumes (see
    // NetworkConfig::FindSubsumedRules). The links still open and close
    // normally; they just never carry data the subsuming rule ships
    // anyway.
    bool skip_subsumed = false;
  };

  // Per-relation batch of inserted tuples: the seed of an incremental
  // update (must already be present in the initiator's store).
  using DeltaMap = std::map<std::string, std::vector<Tuple>>;
  // Root-side completion notification: invoked exactly once, when the
  // diffusing computation this node initiated terminates (including
  // deadline aborts — check the report's `aborted` flag).
  using CompletionFn = std::function<void(const FlowId&)>;

  // `update_seq` is the node-owned counter of started updates; it lives
  // outside the manager so ids stay unique across reconfigurations.
  // `export_memory` is the node-owned record of shipped frontiers
  // (DESIGN.md §14); it outlives the manager for the same reason
  // `update_seq` does.
  UpdateManager(const Context& context, uint64_t* update_seq,
                ExportMemory& export_memory, Options options);

  // Compiles this node's incoming links and syncs the export memory with
  // them. Must succeed before any traffic.
  Status Init() override;

  // Starts a global update from this node (it becomes the root of the
  // diffusing computation). A *refresh* update additionally drops every
  // node's previously imported tuples first, so deletions at the sources
  // propagate. Returns the update id.
  FlowId StartUpdate(bool refresh = false,
                     CompletionFn on_complete = nullptr);

  // Starts an incremental (semi-naive) global update seeded by `delta`:
  // instead of the full-store initial evaluation, every incoming link
  // fires EvaluateFrontierDeltas over the delta relations only. The data
  // it ships engages its receivers; no request is flooded and no link
  // closes, so only the peers the delta reaches take part, and the work
  // is proportional to the delta, not the store. Requires the delta
  // tuples to already be in the local store (Wrapper::InsertLocal does
  // both). Assumes the network was synchronized by a prior full/refresh
  // update; frontiers recorded in the export memory are not re-shipped.
  FlowId StartIncrementalUpdate(DeltaMap delta,
                                CompletionFn on_complete = nullptr);

  // -- introspection (reports, tests, benches) ----------------------------

  bool IsJoined(const FlowId& update) const;
  // All outgoing links closed at this node.
  bool IsClosed(const FlowId& update) const;
  // Global completion observed (or detected, at the root).
  bool IsComplete(const FlowId& update) const;

  bool OutgoingLinkClosed(const FlowId& update,
                          const std::string& rule_id) const;
  bool IncomingLinkClosed(const FlowId& update,
                          const std::string& rule_id) const;

  // Ids of this node's links (for the node report).
  std::vector<std::string> OutgoingLinkIds() const;
  std::vector<std::string> IncomingLinkIds() const;

 private:
  struct IncomingLinkState {  // we are the exporter: we ship data
    bool closed = false;
    bool initial_fired = false;
  };
  struct OutgoingLinkState {  // we are the importer: we receive data
    bool closed = false;
  };
  struct UpdateState {
    // This flow's export-memory epoch, given when the node first sees it.
    uint64_t epoch = 0;
    bool joined = false;
    bool complete = false;
    // Semi-naive update: initial firing is delta-seeded (initiator) or
    // skipped (everyone else), shipments skip what earlier flows
    // exported, no link closes, and completion follows `shipped_to`.
    bool incremental = false;
    // Local inconsistency at join time: exports are suppressed for the
    // whole update (paper principle (d)).
    bool exports_suppressed = false;
    std::map<std::string, IncomingLinkState> incoming;
    std::map<std::string, OutgoingLinkState> outgoing;
    // Importers this node shipped data to in this flow. Protocol state,
    // kept apart from the report's result_destinations: completion must
    // not depend on statistics.
    std::set<PeerId> shipped_to;
  };

  UpdateState& StateOf(const FlowId& update);

  // FlowEngine hooks: kUpdateRequest/kUpdateData/kLinkClosed/
  // kUpdateComplete; root completion; ack and handler instrumentation;
  // link re-closing after a peer loss.
  void Dispatch(const FlowId& update, const Message& message) override;
  void FinishRoot(const FlowId& update) override;
  void OnAck(const FlowId& update, PeerId from) override;
  void OnHandled(const FlowId& update, MessageType type,
                 int64_t wall_us) override;
  void OnPeerLost() override;

  // Shared root-side start path of StartUpdate/StartIncrementalUpdate.
  FlowId StartUpdateInternal(bool refresh, bool incremental,
                             const DeltaMap* delta,
                             CompletionFn on_complete);

  // Marks the node joined and fires the initial link evaluations. A full
  // or refresh join first floods the request onward (skipping `via`, the
  // peer it came from, if any); refresh joins drop imported tuples before
  // evaluating. Incremental joins flood nothing and fire over `delta`
  // (the initiator) or nothing (delta == null).
  void Join(const FlowId& update, PeerId via, bool refresh,
            bool incremental, const DeltaMap* delta = nullptr);

  void OnRequest(const Message& message);
  void OnData(const Message& message);
  void OnLinkClosed(const Message& message);
  void OnComplete(const Message& message);

  // Evaluates + ships the initial content of incoming link `rule_id`:
  // over the whole local store, or, with a `delta` (semi-naive initial
  // firing at the initiator), over each delta relation its body reads —
  // work proportional to the delta, not the store.
  void FireInitial(const FlowId& update, UpdateState& state,
                   const std::string& rule_id, const DeltaMap* delta);

  // Dedups `frontiers` through the export memory, instantiates heads,
  // ships.
  void ShipFrontiers(const FlowId& update, UpdateState& state,
                     const std::string& rule_id,
                     std::vector<Tuple> frontiers,
                     const std::vector<uint32_t>& path);

  // Inductive link closing; records node-closed time when the last
  // outgoing link closes. Incremental flows close no links.
  void CheckClosing(const FlowId& update, UpdateState& state);

  // True if outgoing link `rule_id` can no longer deliver data (closed by
  // its exporter, or the exporter is unreachable).
  bool OutgoingQuiet(const UpdateState& state,
                     const std::string& rule_id) const;

  // Marks the update complete locally and passes kUpdateComplete on,
  // skipping `via`: to every acquaintance, or in an incremental flow to
  // the importers this node shipped data to.
  void Complete(const FlowId& update, PeerId via);

  Options options_;

  // Cached instruments from stats_->metrics(); registered once here so the
  // handler hot paths are plain relaxed-atomic increments.
  Counter* m_requests_in_;
  Counter* m_data_in_;
  Counter* m_data_out_;
  Counter* m_link_closed_in_;
  Counter* m_acks_in_;
  Counter* m_completes_in_;
  Counter* m_rule_evals_;
  Counter* m_tuples_shipped_;
  // Semi-naive instrumentation: incremental updates started here, delta
  // rows they were seeded with, rows fed into rule evaluations (full
  // evals charge the body relations' sizes; delta evals the delta), and
  // frontiers the cross-update export memory suppressed.
  Counter* m_incremental_;
  Counter* m_delta_rows_;
  Counter* m_eval_rows_;
  Counter* m_memory_suppressed_;
  Histogram* m_handler_us_;
  Histogram* m_data_tuples_;

  std::set<std::string> subsumed_incoming_;  // skip_subsumed option
  std::map<FlowId, UpdateState> updates_;
  // Root-side completion callbacks, fired exactly once from Complete().
  std::map<FlowId, CompletionFn> completions_;
  uint64_t* update_seq_;         // owned by the node
  ExportMemory& export_memory_;  // owned by the node
};

}  // namespace codb

#endif  // CODB_CORE_UPDATE_MANAGER_H_
