#include "query/evaluator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>

#include "obs/trace.h"

namespace codb {

Result<CompiledQuery> CompiledQuery::Compile(
    const ConjunctiveQuery& query, const DatabaseSchema& body_schema,
    std::vector<std::string> output_vars) {
  CODB_RETURN_IF_ERROR(query.Validate());

  CompiledQuery compiled;
  std::map<std::string, int> var_ids;
  auto intern = [&](const std::string& name) {
    auto [it, inserted] =
        var_ids.emplace(name, static_cast<int>(var_ids.size()));
    if (inserted) compiled.var_names_.push_back(name);
    return it->second;
  };

  for (const Atom& atom : query.body) {
    const RelationSchema* rel = body_schema.FindRelation(atom.predicate);
    if (rel == nullptr) {
      return Status::NotFound("body predicate '" + atom.predicate +
                              "' not in schema");
    }
    if (rel->arity() != atom.arity()) {
      return Status::InvalidArgument(
          "atom " + atom.ToString() + " arity mismatch vs schema " +
          rel->ToString());
    }
    CompiledAtom ca;
    ca.predicate = atom.predicate;
    for (const Term& term : atom.terms) {
      Slot slot;
      if (term.is_var()) {
        slot.is_var = true;
        slot.var = intern(term.var());
      } else {
        slot.constant = term.value();
      }
      ca.slots.push_back(std::move(slot));
    }
    compiled.atoms_.push_back(std::move(ca));
  }

  for (const Comparison& c : query.comparisons) {
    CompiledComparison cc;
    cc.op = c.op;
    for (auto [term, slot] : {std::pair{&c.lhs, &cc.lhs},
                              std::pair{&c.rhs, &cc.rhs}}) {
      if (term->is_var()) {
        auto it = var_ids.find(term->var());
        if (it == var_ids.end()) {
          return Status::InvalidArgument("comparison variable '" +
                                         term->var() + "' not in body");
        }
        slot->is_var = true;
        slot->var = it->second;
      } else {
        slot->constant = term->value();
      }
    }
    compiled.comparisons_.push_back(std::move(cc));
  }

  for (const std::string& name : output_vars) {
    auto it = var_ids.find(name);
    if (it == var_ids.end()) {
      return Status::InvalidArgument("output variable '" + name +
                                     "' does not occur in the body");
    }
    compiled.output_ids_.push_back(it->second);
  }
  compiled.output_vars_ = std::move(output_vars);
  return compiled;
}

bool CompiledQuery::UsesRelation(const std::string& relation) const {
  for (const CompiledAtom& atom : atoms_) {
    if (atom.predicate == relation) return true;
  }
  return false;
}

std::vector<Tuple> CompiledQuery::Evaluate(const RelationSource& db) const {
  // Auto-context span: records only when tracing is on AND an enclosing
  // span (an update/query handler) provides the node context.
  ScopedSpan span(Tracer::Global().BeginSpanHere("eval.full"));
  std::vector<Tuple> out;
  Run(db, /*forced_first=*/-1, /*forced_rows=*/nullptr, out);
  // The set's positions index `out`, which leaves with the caller.
  scratch_.seen.Clear();
  return out;
}

std::vector<Tuple> CompiledQuery::EvaluateDelta(
    const RelationSource& db, const std::string& delta_relation,
    const std::vector<Tuple>& delta) const {
  // A new derivation must use a delta tuple for at least one occurrence of
  // the updated relation. Running one pass per occurrence with the other
  // occurrences reading the full (already-updated) relation covers every
  // such derivation; scratch_.seen is shared across the passes, so a
  // frontier derived by several occurrences still comes out once.
  std::vector<Tuple> out;
  if (delta.empty()) return out;
  ScopedSpan span(Tracer::Global().BeginSpanHere("eval.delta"));
  // Most delta derivations yield on the order of one frontier per delta
  // tuple; pre-sizing skips the growth steps from empty.
  scratch_.seen.Reserve(delta.size());
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (atoms_[i].predicate != delta_relation) continue;
    Run(db, static_cast<int>(i), &delta, out);
  }
  scratch_.seen.Clear();
  return out;
}

void CompiledQuery::ResolveAtoms(const RelationSource& db) const {
  scratch_.atom_views.resize(atoms_.size());
  for (size_t i = 0; i < atoms_.size(); ++i) {
    scratch_.atom_views[i] = db.View(atoms_[i].predicate);
  }
}

std::vector<int> CompiledQuery::ComputeOrder(int forced_first) const {
  // Greedy subgoal order: the forced atom first (delta mode), then by
  // (bound-variable count desc, relation size asc).
  std::vector<int> remaining;
  for (int i = 0; i < static_cast<int>(atoms_.size()); ++i) {
    if (i != forced_first) remaining.push_back(i);
  }
  std::vector<int> order;
  std::vector<bool> var_seen(var_names_.size(), false);
  auto mark_atom = [&](int idx) {
    for (const Slot& slot : atoms_[static_cast<size_t>(idx)].slots) {
      if (slot.is_var) var_seen[static_cast<size_t>(slot.var)] = true;
    }
  };
  if (forced_first >= 0) {
    order.push_back(forced_first);
    mark_atom(forced_first);
  }
  while (!remaining.empty()) {
    int best_pos = 0;
    int best_bound = -1;
    size_t best_size = 0;
    for (size_t p = 0; p < remaining.size(); ++p) {
      const CompiledAtom& atom = atoms_[static_cast<size_t>(remaining[p])];
      int bound_count = 0;
      for (const Slot& slot : atom.slots) {
        if (!slot.is_var || var_seen[static_cast<size_t>(slot.var)]) {
          ++bound_count;
        }
      }
      size_t size =
          scratch_.atom_views[static_cast<size_t>(remaining[p])].size();
      if (bound_count > best_bound ||
          (bound_count == best_bound && size < best_size)) {
        best_bound = bound_count;
        best_size = size;
        best_pos = static_cast<int>(p);
      }
    }
    int chosen = remaining[static_cast<size_t>(best_pos)];
    remaining.erase(remaining.begin() + best_pos);
    order.push_back(chosen);
    mark_atom(chosen);
  }
  return order;
}

const std::vector<int>& CompiledQuery::CachedOrder(int forced_first) const {
  // Cache key: forced atom plus the log2 size bucket of every body
  // relation. The greedy planner only consumes relative sizes, so the order
  // is stable while each relation stays within a power-of-two band; a
  // relation crossing a band boundary produces a new key and a fresh plan.
  // Bodies with more than 8 atoms do not fit the 64-bit key; they are rare
  // (GLAV rule bodies are short) and simply recompute every call.
  if (atoms_.size() > 8) {
    scratch_.fallback_order = ComputeOrder(forced_first);
    return scratch_.fallback_order;
  }
  uint64_t key = static_cast<uint64_t>(forced_first + 1) & 0xFF;
  int shift = 8;
  for (const RelationView& view : scratch_.atom_views) {
    uint64_t bucket = static_cast<uint64_t>(std::bit_width(view.size()));
    key |= bucket << shift;
    shift += 7;
  }
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) {
    it = plan_cache_.emplace(key, ComputeOrder(forced_first)).first;
  }
  return it->second;
}

std::string CompiledQuery::ExplainPlan(const RelationSource& db) const {
  ResolveAtoms(db);
  std::vector<int> order = ComputeOrder(/*forced_first=*/-1);
  std::vector<bool> var_seen(var_names_.size(), false);
  std::string out = "plan:\n";
  for (size_t step = 0; step < order.size(); ++step) {
    const CompiledAtom& atom = atoms_[static_cast<size_t>(order[step])];
    // Access path mirrors Join: index probe on every bound/constant
    // column (composite when there are several), else scan.
    std::vector<int> probe_columns;
    for (size_t i = 0; i < atom.slots.size(); ++i) {
      const Slot& slot = atom.slots[i];
      if (!slot.is_var || var_seen[static_cast<size_t>(slot.var)]) {
        probe_columns.push_back(static_cast<int>(i));
      }
    }
    out += "  " + std::to_string(step + 1) + ". " + atom.predicate;
    if (probe_columns.size() == 1) {
      out += " [probe col " + std::to_string(probe_columns[0]) + "]";
    } else if (probe_columns.size() > 1) {
      out += " [probe cols";
      for (size_t i = 0; i < probe_columns.size(); ++i) {
        out += i == 0 ? " " : ",";
        out += std::to_string(probe_columns[i]);
      }
      out += "]";
    } else {
      out += " [scan]";
    }
    out += " rows=" +
           std::to_string(
               scratch_.atom_views[static_cast<size_t>(order[step])].size()) +
           "\n";
    for (const Slot& slot : atom.slots) {
      if (slot.is_var) var_seen[static_cast<size_t>(slot.var)] = true;
    }
  }
  return out;
}

void CompiledQuery::Run(const RelationSource& db, int forced_first,
                        const std::vector<Tuple>* forced_rows,
                        std::vector<Tuple>& out) const {
  ResolveAtoms(db);
  const std::vector<int>& order = CachedOrder(forced_first);
  scratch_.binding.assign(var_names_.size(), Value());
  scratch_.bound.assign(var_names_.size(), 0);
  if (scratch_.probe_columns.size() < atoms_.size()) {
    scratch_.probe_columns.resize(atoms_.size());
    scratch_.probe_keys.resize(atoms_.size());
    scratch_.newly_bound.resize(atoms_.size());
  }
  Join(order, 0, forced_first, forced_rows, out);
}

bool CompiledQuery::TryBindTuple(const CompiledAtom& atom, const Tuple& tuple,
                                 std::vector<int>& newly_bound) const {
  Scratch& s = scratch_;
  for (size_t i = 0; i < atom.slots.size(); ++i) {
    const Slot& slot = atom.slots[i];
    const Value& v = tuple.at(static_cast<int>(i));
    if (!slot.is_var) {
      if (!(slot.constant == v)) return false;
      continue;
    }
    size_t var = static_cast<size_t>(slot.var);
    if (s.bound[var] != 0) {
      if (!(s.binding[var] == v)) return false;
    } else {
      s.binding[var] = v;
      s.bound[var] = 1;
      newly_bound.push_back(slot.var);
    }
  }
  return true;
}

bool CompiledQuery::ComparisonsHold() const {
  const Scratch& s = scratch_;
  for (const CompiledComparison& c : comparisons_) {
    auto resolve = [&](const Slot& slot, Value& out_value) {
      if (!slot.is_var) {
        out_value = slot.constant;
        return true;
      }
      size_t var = static_cast<size_t>(slot.var);
      if (s.bound[var] == 0) return false;  // not yet decidable
      out_value = s.binding[var];
      return true;
    };
    Value lhs;
    Value rhs;
    if (!resolve(c.lhs, lhs) || !resolve(c.rhs, rhs)) continue;
    if (!EvalComparison(lhs, c.op, rhs)) return false;
  }
  return true;
}

void CompiledQuery::Join(const std::vector<int>& order, size_t depth,
                         int forced_first,
                         const std::vector<Tuple>* forced_rows,
                         std::vector<Tuple>& out) const {
  Scratch& s = scratch_;
  if (depth == order.size()) {
    std::vector<Value>& frontier = s.frontier;
    frontier.clear();
    frontier.reserve(output_ids_.size());
    for (int id : output_ids_) {
      assert(s.bound[static_cast<size_t>(id)] != 0);
      frontier.push_back(s.binding[static_cast<size_t>(id)]);
    }
    // Inline dedup: the projection goes out exactly once, checked at the
    // leaf instead of a second materialize-and-filter pass.
    const uint32_t hash = PositionTable::Fold(
        Tuple::HashOf(frontier.data(), frontier.size()));
    const uint32_t found = s.seen.FindOrInsert(
        hash, static_cast<uint32_t>(out.size()), [&](uint32_t at) {
          return std::equal(out[at].begin(), out[at].end(), frontier.begin(),
                            frontier.end());
        });
    if (found == PositionTable::kNone) {
      out.emplace_back(frontier.data(), frontier.size());
    }
    return;
  }

  int atom_index = order[depth];
  const CompiledAtom& atom = atoms_[static_cast<size_t>(atom_index)];

  auto consider = [&](const Tuple& tuple) {
    std::vector<int>& newly_bound =
        s.newly_bound[static_cast<size_t>(depth)];
    newly_bound.clear();
    if (TryBindTuple(atom, tuple, newly_bound) && ComparisonsHold()) {
      Join(order, depth + 1, forced_first, forced_rows, out);
    }
    for (int var : newly_bound) {
      s.bound[static_cast<size_t>(var)] = 0;
    }
  };

  // Candidate rows: the forced delta batch, an index probe on every
  // already-bound column (composite index when several are bound), or a
  // full scan.
  if (atom_index == forced_first) {
    for (const Tuple& t : *forced_rows) consider(t);
    return;
  }
  const RelationView& view = s.atom_views[static_cast<size_t>(atom_index)];
  if (!view.exists()) return;  // relation absent -> no matches

  std::vector<int>& probe_columns =
      s.probe_columns[static_cast<size_t>(depth)];
  std::vector<Value>& probe_keys = s.probe_keys[static_cast<size_t>(depth)];
  probe_columns.clear();
  probe_keys.clear();
  for (size_t i = 0; i < atom.slots.size(); ++i) {
    const Slot& slot = atom.slots[i];
    if (!slot.is_var) {
      probe_columns.push_back(static_cast<int>(i));
      probe_keys.push_back(slot.constant);
    } else if (s.bound[static_cast<size_t>(slot.var)] != 0) {
      probe_columns.push_back(static_cast<int>(i));
      probe_keys.push_back(s.binding[static_cast<size_t>(slot.var)]);
    }
  }

  if (probe_columns.size() == 1) {
    view.Probe(probe_columns[0], probe_keys[0], consider);
  } else if (probe_columns.size() > 1) {
    view.ProbeComposite(probe_columns, probe_keys, consider);
  } else {
    view.Scan(consider);
  }
}

}  // namespace codb
