// Distributed query answering at query time (paper, sections 1 and 3).
//
// A node is queried in its own schema. Data relevant to the query may live
// anywhere in the network, so the node fetches it through its coordination
// rules by a diffusing computation: it asks the exporter of every outgoing
// link whose head writes a relation the query reads; that exporter answers
// from its local data immediately, forwards fetch requests through its own
// relevant outgoing links, and streams incremental results back as deeper
// data arrives. Requests carry a node-id label and are never propagated to
// a node already in the label (simple paths, the paper's cycle guard).
//
// Fetched data lives in a per-query *overlay* (relation/database.h), so
// query-time answering leaves the node databases untouched — that is
// precisely the contrast with the global update, which materializes the
// data and makes later queries local (experiment E2). The overlay copies
// nothing: on the query's first touch at a node it shares every store
// relation and notes its row count, O(relations). Relations only grow, and
// a refresh swaps a shrunk relation out instead of emptying it, so the
// query keeps reading the rows its node held at that touch, whatever the
// store does meanwhile. A fetched tuple the snapshot already holds is
// dropped; the others go to a small per-query layer, and the query's rule
// evaluations read snapshot plus layer through the evaluator's one
// RelationView path, probing the store's own indexes. Reads of the live
// store happen in handlers and API calls under Node::mutex_, which
// serializes them with the store's writers (DESIGN.md §10).
//
// Retained state is exported as gauges: query.states (per-query states
// this node holds, owned ones included) and query.layer_rows (rows held in
// their layers).

#ifndef CODB_CORE_QUERY_MANAGER_H_
#define CODB_CORE_QUERY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/export_memory.h"
#include "core/flow_engine.h"

namespace codb {

class QueryManager : public FlowEngine {
 public:
  // Called at the origin when new result tuples arrive (streaming UI) and
  // once more on completion.
  struct QueryProgress {
    size_t new_tuples = 0;
    bool done = false;
  };
  using ProgressFn = std::function<void(const QueryProgress&)>;

  // `query_seq` is the node-owned counter of issued queries; it lives
  // outside the manager so ids stay unique across reconfigurations.
  QueryManager(const Context& context, uint64_t* query_seq);

  // Issues `query` (over this node's schema) from this node. The node
  // becomes the root of the diffusing computation.
  Result<FlowId> StartQuery(const ConjunctiveQuery& query,
                            ProgressFn on_progress = nullptr);

  // True once the diffusing computation of an owned query terminated.
  bool IsDone(const FlowId& query) const;

  // Current (streaming) or final answers of an owned query: the user query
  // evaluated over the store snapshot taken at StartQuery plus the fetched
  // layer.
  Result<std::vector<Tuple>> Answers(const FlowId& query) const;

  // The null-free subset of Answers(): the *certain* answers under the
  // marked-null semantics (for conjunctive queries, evaluating the naive
  // tables and dropping rows with nulls is sound and complete).
  Result<std::vector<Tuple>> CertainAnswers(const FlowId& query) const;

  // Per-query states held for queries *other* nodes own. The no-leak
  // teardown check: once every owned query finished and its done-flood
  // propagated, this is zero network-wide.
  size_t ForeignQueryStates() const;

 private:
  struct QueryState {
    // Set only at the origin.
    bool owned = false;
    bool done = false;
    ConjunctiveQuery user_query;
    ProgressFn on_progress;

    // user_query compiled once on first Answers() call; reused afterwards
    // so streaming progress callbacks and repeated reads share one plan
    // cache. Mutable: filling it is invisible to callers of const Answers.
    mutable std::optional<CompiledQuery> compiled_user_query;

    // Store snapshot + fetched layer; opened on the first touch.
    std::unique_ptr<Overlay> overlay;

    // Incoming links this node serves for the query: rule id -> requester
    // and the set of labels under which it was requested.
    struct Serving {
      PeerId requester;
      std::set<std::vector<uint32_t>> labels;
    };
    std::map<std::string, Serving> serving;

    // What this node shipped for the query, per served rule. The whole
    // query is one flow with one epoch, so every frontier ships once per
    // rule, under however many labels the rule was asked for.
    ExportMemory exports;
    uint64_t export_epoch = exports.NewEpoch();

    // (rule id, label) sub-requests already issued.
    std::set<std::pair<std::string, std::vector<uint32_t>>> requested;
  };

  QueryState& StateOf(const FlowId& query);
  Overlay& OverlayOf(QueryState& state);

  // FlowEngine hooks: kQueryRequest/kQueryResult/kQueryDone, and the end
  // of an owned query (reports it done and floods kQueryDone).
  void Dispatch(const FlowId& query, const Message& message) override;
  void FinishRoot(const FlowId& query) override;

  void OnRequest(const Message& message);
  void OnResult(const Message& message);
  void OnDone(const Message& message);

  // Issues sub-requests for every outgoing link relevant to `rule_id`
  // (or, with empty rule_id, to the user query's body relations), under
  // `label` extended with self.
  void Fetch(const FlowId& query, QueryState& state,
             const std::vector<std::string>& relations,
             const std::vector<uint32_t>& label);

  // Evaluates rule `rule_id` over the overlay (optionally delta-restricted)
  // and streams fresh results to the requester.
  void Serve(const FlowId& query, QueryState& state,
             const std::string& rule_id,
             const std::map<std::string, std::vector<Tuple>>* delta);

  // Cached instruments from stats_->metrics() (see update_manager.h).
  Counter* m_requests_in_;
  Counter* m_results_in_;
  Counter* m_results_out_;
  Counter* m_done_in_;
  Counter* m_rule_evals_;
  Gauge* m_states_;      // query.states: queries_.size()
  Gauge* m_layer_rows_;  // query.layer_rows: rows in every state's layer

  std::map<FlowId, QueryState> queries_;
  std::set<FlowId> done_flood_seen_;
  uint64_t* query_seq_;  // owned by the node
};

}  // namespace codb

#endif  // CODB_CORE_QUERY_MANAGER_H_
