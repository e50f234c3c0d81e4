// GLAV coordination rules and their execution.
//
// A coordination rule lets the *importer* node fetch data from the
// *exporter* node (its acquaintance): the rule body is a conjunctive query
// over the exporter's schema, the head a conjunctive query over the
// importer's schema. Executing a rule means evaluating the body at the
// exporter and instantiating head tuples, minting fresh marked nulls for
// existential head variables (one per variable per firing, shared across
// the head atoms of that firing).
//
// Execution is split into two halves so dedup can happen in between:
//
//   frontier  = EvaluateFrontier(exporter view)    // distinguished bindings
//   fresh     = frontier \ sent_set                // caller-side dedup
//   tuples    = InstantiateHead(fresh, minter)     // nulls minted here
//
// The paper's sent-set dedup ("we delete from Ri those tuples which have
// been already sent") must operate on frontiers, not instantiated tuples:
// fresh nulls would make every re-instantiation look new.

#ifndef CODB_QUERY_RULE_H_
#define CODB_QUERY_RULE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/evaluator.h"
#include "relation/database.h"
#include "util/status.h"

namespace codb {

// Source of fresh marked nulls. Each node owns one, keyed by its peer id,
// so labels are globally unique without coordination. A node's update
// and query managers share one minter; both mint only under the node's
// mutex (DESIGN.md §10), so the counter needs no synchronization.
class NullMinter {
 public:
  explicit NullMinter(uint32_t peer) : peer_(peer) {}

  Value Mint() { return Value::Null(peer_, next_++); }
  uint64_t minted() const { return next_; }

 private:
  uint32_t peer_;
  uint64_t next_ = 0;
};

// One head tuple destined for a relation of the importer.
struct HeadTuple {
  std::string relation;
  Tuple tuple;

  friend bool operator==(const HeadTuple& a, const HeadTuple& b) {
    return a.relation == b.relation && a.tuple == b.tuple;
  }
};

class CoordinationRule {
 public:
  CoordinationRule() = default;
  CoordinationRule(std::string id, std::string importer, std::string exporter,
                   ConjunctiveQuery query)
      : id_(std::move(id)),
        importer_(std::move(importer)),
        exporter_(std::move(exporter)),
        query_(std::move(query)) {}

  const std::string& id() const { return id_; }
  const std::string& importer() const { return importer_; }
  const std::string& exporter() const { return exporter_; }
  const ConjunctiveQuery& query() const { return query_; }

  // Relations of the importer written by this rule (head predicates).
  std::vector<std::string> HeadRelations() const;
  // Relations of the exporter read by this rule (body predicates).
  std::vector<std::string> BodyRelations() const;

  bool HasExistentials() const { return !query_.ExistentialVars().empty(); }

  // Validates and type-checks against both schemas and builds the body
  // plan. Must be called before any evaluation.
  Status Compile(const DatabaseSchema& exporter_schema,
                 const DatabaseSchema& importer_schema);
  bool compiled() const { return compiled_.has_value(); }

  // Distinguished-variable bindings of the body over the exporter's store
  // (a Database, or a query's Overlay of it).
  std::vector<Tuple> EvaluateFrontier(const RelationSource& exporter_db) const;

  // Same, restricted to derivations using `delta` for some occurrence of
  // `delta_relation` (see CompiledQuery::EvaluateDelta).
  std::vector<Tuple> EvaluateFrontierDelta(
      const RelationSource& exporter_db, const std::string& delta_relation,
      const std::vector<Tuple>& delta) const;

  // The semi-naive step for a batch of per-relation deltas: the union of
  // EvaluateFrontierDelta over every non-empty delta relation the body
  // reads, in relation order. Adds the delta rows fed in to `rows_read`.
  std::vector<Tuple> EvaluateFrontierDeltas(
      const RelationSource& exporter_db,
      const std::map<std::string, std::vector<Tuple>>& deltas,
      uint64_t* rows_read = nullptr) const;

  // Head tuples for one frontier binding; mints one fresh null per
  // existential variable, shared across this firing's head atoms.
  std::vector<HeadTuple> InstantiateHead(const Tuple& frontier,
                                         NullMinter& minter) const;

  // Same, appended to `out`: the per-firing hot path, so a batch of
  // firings shares one output vector instead of allocating one each.
  void InstantiateHeadInto(const Tuple& frontier, NullMinter& minter,
                           std::vector<HeadTuple>& out) const;

  // "rule r1: n2 <- n1 : head :- body." (importer <- exporter).
  std::string ToString() const;

 private:
  struct HeadSlot {
    enum class Kind { kFrontier, kExistential, kConstant } kind =
        Kind::kConstant;
    int index = -1;  // frontier position or existential position
    Value constant;
  };
  struct CompiledHeadAtom {
    std::string relation;
    std::vector<HeadSlot> slots;
  };
  struct Compiled {
    CompiledQuery body;
    std::vector<CompiledHeadAtom> head_atoms;
    int num_existentials = 0;
  };

  std::string id_;
  std::string importer_;
  std::string exporter_;
  ConjunctiveQuery query_;
  std::optional<Compiled> compiled_;
};

}  // namespace codb

#endif  // CODB_QUERY_RULE_H_
