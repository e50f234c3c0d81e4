#include "query/rule.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <map>

namespace codb {

namespace {

std::vector<std::string> UniquePredicates(const std::vector<Atom>& atoms) {
  std::vector<std::string> out;
  for (const Atom& atom : atoms) {
    if (std::find(out.begin(), out.end(), atom.predicate) == out.end()) {
      out.push_back(atom.predicate);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> CoordinationRule::HeadRelations() const {
  return UniquePredicates(query_.head);
}

std::vector<std::string> CoordinationRule::BodyRelations() const {
  return UniquePredicates(query_.body);
}

Status CoordinationRule::Compile(const DatabaseSchema& exporter_schema,
                                 const DatabaseSchema& importer_schema) {
  CODB_RETURN_IF_ERROR(query_.Validate());
  CODB_RETURN_IF_ERROR(query_.TypeCheck(exporter_schema, importer_schema));

  // Frontier layout: the distinguished head variables in sorted order, so
  // the layout is deterministic regardless of head syntax.
  std::set<std::string> body_vars = query_.BodyVars();
  std::vector<std::string> frontier_vars;
  for (const std::string& v : query_.HeadVars()) {
    if (body_vars.count(v) > 0) frontier_vars.push_back(v);
  }
  // (HeadVars is a std::set, so frontier_vars is already sorted.)

  CODB_ASSIGN_OR_RETURN(
      CompiledQuery body,
      CompiledQuery::Compile(query_, exporter_schema, frontier_vars));

  Compiled compiled{std::move(body), {}, 0};

  std::map<std::string, int> frontier_index;
  for (size_t i = 0; i < frontier_vars.size(); ++i) {
    frontier_index[frontier_vars[i]] = static_cast<int>(i);
  }
  std::map<std::string, int> existential_index;
  for (const std::string& v : query_.ExistentialVars()) {
    existential_index.emplace(v, static_cast<int>(existential_index.size()));
  }
  compiled.num_existentials = static_cast<int>(existential_index.size());

  for (const Atom& atom : query_.head) {
    CompiledHeadAtom cha;
    cha.relation = atom.predicate;
    for (const Term& term : atom.terms) {
      HeadSlot slot;
      if (!term.is_var()) {
        slot.kind = HeadSlot::Kind::kConstant;
        slot.constant = term.value();
      } else if (auto it = frontier_index.find(term.var());
                 it != frontier_index.end()) {
        slot.kind = HeadSlot::Kind::kFrontier;
        slot.index = it->second;
      } else {
        slot.kind = HeadSlot::Kind::kExistential;
        slot.index = existential_index.at(term.var());
      }
      cha.slots.push_back(std::move(slot));
    }
    compiled.head_atoms.push_back(std::move(cha));
  }

  compiled_ = std::move(compiled);
  return Status::Ok();
}

std::vector<Tuple> CoordinationRule::EvaluateFrontier(
    const RelationSource& exporter_db) const {
  assert(compiled_ && "Compile() must succeed before evaluation");
  return compiled_->body.Evaluate(exporter_db);
}

std::vector<Tuple> CoordinationRule::EvaluateFrontierDelta(
    const RelationSource& exporter_db, const std::string& delta_relation,
    const std::vector<Tuple>& delta) const {
  assert(compiled_ && "Compile() must succeed before evaluation");
  return compiled_->body.EvaluateDelta(exporter_db, delta_relation, delta);
}

std::vector<Tuple> CoordinationRule::EvaluateFrontierDeltas(
    const RelationSource& exporter_db,
    const std::map<std::string, std::vector<Tuple>>& deltas,
    uint64_t* rows_read) const {
  assert(compiled_ && "Compile() must succeed before evaluation");
  std::vector<Tuple> frontiers;
  for (const auto& [relation, rows] : deltas) {
    if (rows.empty() || !compiled_->body.UsesRelation(relation)) continue;
    if (rows_read != nullptr) *rows_read += rows.size();
    std::vector<Tuple> partial =
        compiled_->body.EvaluateDelta(exporter_db, relation, rows);
    frontiers.insert(frontiers.end(), std::make_move_iterator(partial.begin()),
                     std::make_move_iterator(partial.end()));
  }
  return frontiers;
}

std::vector<HeadTuple> CoordinationRule::InstantiateHead(
    const Tuple& frontier, NullMinter& minter) const {
  std::vector<HeadTuple> out;
  out.reserve(compiled_ ? compiled_->head_atoms.size() : 0);
  InstantiateHeadInto(frontier, minter, out);
  return out;
}

void CoordinationRule::InstantiateHeadInto(
    const Tuple& frontier, NullMinter& minter,
    std::vector<HeadTuple>& out) const {
  assert(compiled_ && "Compile() must succeed before evaluation");
  // One fresh null per existential variable, shared by all head atoms of
  // this firing.
  std::vector<Value> nulls;
  nulls.reserve(static_cast<size_t>(compiled_->num_existentials));
  for (int i = 0; i < compiled_->num_existentials; ++i) {
    nulls.push_back(minter.Mint());
  }

  auto resolve = [&](const HeadSlot& slot) -> Value {
    switch (slot.kind) {
      case HeadSlot::Kind::kFrontier:
        return frontier.at(slot.index);
      case HeadSlot::Kind::kExistential:
        return nulls[static_cast<size_t>(slot.index)];
      case HeadSlot::Kind::kConstant:
        break;
    }
    return slot.constant;
  };
  for (const CompiledHeadAtom& atom : compiled_->head_atoms) {
    size_t width = atom.slots.size();
    if (width <= Tuple::kInlineCapacity) {
      // Common case: assemble on the stack, no heap traffic per firing.
      Value stack[Tuple::kInlineCapacity];
      for (size_t i = 0; i < width; ++i) stack[i] = resolve(atom.slots[i]);
      out.push_back({atom.relation, Tuple(stack, width)});
    } else {
      std::vector<Value> values;
      values.reserve(width);
      for (const HeadSlot& slot : atom.slots) {
        values.push_back(resolve(slot));
      }
      out.push_back({atom.relation, Tuple(values)});
    }
  }
}

std::string CoordinationRule::ToString() const {
  return "rule " + id_ + ": " + importer_ + " <- " + exporter_ + " : " +
         query_.ToString();
}

}  // namespace codb
