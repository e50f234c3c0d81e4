// Conjunctive-query evaluation over a RelationSource (relation/database.h).
//
// Every body atom is read through one RelationView: rows [0, end) of a
// relation plus an optional layer. A Database serves whole relations with
// no layer; a query Overlay serves a row-count snapshot of the store plus
// the rows fetched for the query. One join loop serves both.
//
// A CompiledQuery is the analyzed/planned form of a ConjunctiveQuery body:
// variables are numbered, subgoals are reordered greedily (bound-variable
// count first, then relation size) and executed as an index-nested-loop
// backtracking join with comparison predicates applied as early as their
// variables are bound.
//
// Two evaluation modes:
//   * Evaluate        — over every row the source serves;
//   * EvaluateDelta   — semi-naive: only derivations using at least one
//     tuple of a delta batch for some occurrence of the updated relation
//     (the "substituting R by T'" step of the paper's section 3,
//     generalized to bodies referencing the updated relation repeatedly).
//
// Results are *frontier tuples*: projections of the body bindings onto an
// explicit list of output variables (for plain queries, the head's
// distinguished variables; for GLAV rules, the head variables shared with
// the body). Dedup happens inline at the join leaves, so duplicate
// projections are dropped as they are produced — including across the
// per-occurrence passes of EvaluateDelta — and never materialized. The
// dedup set is a PositionTable (relation/position_table.h) of positions
// into the call's output vector: a frontier is stored once, as its
// output tuple. The set only dedups within one call: it is emptied when
// Evaluate or EvaluateDelta returns, so what was shipped before is the
// export memory's business (core/export_memory.h), not the evaluator's.
//
// Hot-path machinery (all per-instance, reused across calls):
//   * plan cache    — the greedy subgoal order depends only on the forced
//     atom and the log2 size buckets of the body relations, so computed
//     orders are memoized on that key and reused while sizes stay in the
//     same buckets;
//   * probe slots   — each join level probes on *all* bound/constant
//     columns at once: one bound column uses the single-column index,
//     several use a composite index (see Relation::ProbeComposite);
//   * scratch state — bindings, per-depth probe buffers and the dedup set
//     live in a mutable scratch reused across Run calls (the dedup set
//     empty between evaluations).
//
// Concurrency contract: a CompiledQuery instance must not be entered
// concurrently (the scratch and plan cache are not locked). The core
// managers serialize evaluation per flow (DESIGN.md §10); parallelism in
// coDB comes from flows running across peers, not from inside one join.

#ifndef CODB_QUERY_EVALUATOR_H_
#define CODB_QUERY_EVALUATOR_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/ast.h"
#include "relation/database.h"
#include "relation/position_table.h"
#include "util/status.h"

namespace codb {

class CompiledQuery {
 public:
  // `query` must Validate(); its body is checked against `body_schema`.
  // `output_vars` must be body variables; they define the frontier layout.
  static Result<CompiledQuery> Compile(const ConjunctiveQuery& query,
                                       const DatabaseSchema& body_schema,
                                       std::vector<std::string> output_vars);

  // Frontier tuples of the body over `db`, deduplicated.
  std::vector<Tuple> Evaluate(const RelationSource& db) const;

  // Frontier tuples of derivations that use at least one tuple of `delta`
  // in place of some body occurrence of `delta_relation`. `db` must already
  // contain the delta tuples (the caller inserts first, then runs deltas),
  // so non-delta occurrences see the *new* state.
  std::vector<Tuple> EvaluateDelta(const RelationSource& db,
                                   const std::string& delta_relation,
                                   const std::vector<Tuple>& delta) const;

  const std::vector<std::string>& output_vars() const { return output_vars_; }

  // True if some body atom references `relation`.
  bool UsesRelation(const std::string& relation) const;

  // Human-readable execution plan against `db`: the greedy subgoal order
  // the evaluator will use, with the access path (index probe vs scan)
  // and current cardinality of each subgoal. Diagnostic only.
  std::string ExplainPlan(const RelationSource& db) const;

 private:
  // One body slot: a variable (by dense id) or a constant.
  struct Slot {
    bool is_var = false;
    int var = -1;
    Value constant;
  };
  struct CompiledAtom {
    std::string predicate;
    std::vector<Slot> slots;
  };
  struct CompiledComparison {
    Slot lhs;
    ComparisonOp op = ComparisonOp::kEq;
    Slot rhs;
  };

  // Reusable evaluation state, kept across calls in scratch_.
  struct Scratch {
    std::vector<Value> binding;
    std::vector<char> bound;  // char, not bool: avoids bitset proxies
    // Positions into Run's `out`; emptied before Evaluate or
    // EvaluateDelta returns (a large table is given back, not swept).
    PositionTable seen;
    std::vector<Value> frontier;
    // Per-join-depth buffers so recursion levels do not share them.
    std::vector<std::vector<int>> probe_columns;
    std::vector<std::vector<Value>> probe_keys;
    std::vector<std::vector<int>> newly_bound;
    std::vector<int> fallback_order;
    // Body atom -> view, resolved once per Run; Join levels run once per
    // candidate binding of their parent and must not repeat the name
    // lookup.
    std::vector<RelationView> atom_views;
  };

  // Greedy subgoal ordering shared by Run and ExplainPlan. Reads relation
  // sizes through scratch_.atom_views (see ResolveAtoms).
  std::vector<int> ComputeOrder(int forced_first) const;

  // Resolves every body atom's view into scratch_.atom_views.
  void ResolveAtoms(const RelationSource& db) const;

  // Memoized ComputeOrder: reuses a cached order while every body relation
  // stays within the same log2 size bucket. Falls back to a fresh
  // computation for bodies too large to key compactly.
  const std::vector<int>& CachedOrder(int forced_first) const;

  // Join driver. `forced_first`: index into atoms_ evaluated first against
  // `forced_rows` instead of the database (delta mode); -1 for none.
  // Frontier tuples are appended to `out` after passing scratch_.seen.
  void Run(const RelationSource& db, int forced_first,
           const std::vector<Tuple>* forced_rows,
           std::vector<Tuple>& out) const;

  void Join(const std::vector<int>& order, size_t depth, int forced_first,
            const std::vector<Tuple>* forced_rows,
            std::vector<Tuple>& out) const;

  bool TryBindTuple(const CompiledAtom& atom, const Tuple& tuple,
                    std::vector<int>& newly_bound) const;

  bool ComparisonsHold() const;

  std::vector<CompiledAtom> atoms_;
  std::vector<CompiledComparison> comparisons_;
  std::vector<std::string> var_names_;      // dense id -> name
  std::vector<std::string> output_vars_;    // frontier layout
  std::vector<int> output_ids_;             // frontier var ids

  mutable Scratch scratch_;
  mutable std::unordered_map<uint64_t, std::vector<int>> plan_cache_;
};

}  // namespace codb

#endif  // CODB_QUERY_EVALUATOR_H_
