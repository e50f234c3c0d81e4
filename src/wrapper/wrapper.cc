#include "wrapper/wrapper.h"

#include "query/evaluator.h"

namespace codb {

Result<std::unique_ptr<Wrapper>> Wrapper::ForDatabase(
    Database* ldb, DatabaseSchema exported) {
  if (ldb == nullptr) {
    return Status::InvalidArgument(
        "ForDatabase needs a database; use ForMediator for LDB-less nodes");
  }
  auto wrapper = std::unique_ptr<Wrapper>(new Wrapper());
  DatabaseSchema catalog = ldb->Schema();
  CODB_RETURN_IF_ERROR(wrapper->dbs_.SetExported(std::move(exported),
                                                 &catalog));
  wrapper->ldb_ = ldb;
  wrapper->storage_ = ldb;
  return wrapper;
}

Result<std::unique_ptr<Wrapper>> Wrapper::ForMediator(
    DatabaseSchema exported) {
  auto wrapper = std::unique_ptr<Wrapper>(new Wrapper());
  wrapper->is_mediator_ = true;
  wrapper->transient_ = std::make_unique<Database>();
  for (const RelationSchema& rel : exported.relations()) {
    CODB_RETURN_IF_ERROR(wrapper->transient_->CreateRelation(rel));
  }
  CODB_RETURN_IF_ERROR(wrapper->dbs_.SetExported(std::move(exported),
                                                 /*full_catalog=*/nullptr));
  wrapper->storage_ = wrapper->transient_.get();
  return wrapper;
}

Result<std::map<std::string, std::vector<Tuple>>> Wrapper::ApplyHeadTuples(
    const std::vector<HeadTuple>& tuples) {
  // A batch touches only a handful of relations but its tuples arrive
  // interleaved (rule heads fire round-robin), so resolve each relation
  // name once into a slot and pick the slot per tuple with a short linear
  // scan — cheaper than a map lookup and a grouping copy per tuple.
  struct Slot {
    const std::string* name;
    Relation* rel;
    std::vector<char>* provenance;
    std::vector<Tuple> added;
  };
  std::vector<Slot> slots;
  for (const HeadTuple& ht : tuples) {
    Slot* slot = nullptr;
    for (Slot& s : slots) {
      if (*s.name == ht.relation) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) {
      CODB_ASSIGN_OR_RETURN(Relation * rel, storage_->Get(ht.relation));
      // Upper bound (the whole batch could target this relation); keeps
      // the dedup set and built indexes from rehashing mid-burst.
      rel->Reserve(rel->size() + tuples.size());
      slots.push_back(Slot{&ht.relation, rel, &imported_[ht.relation], {}});
      slot = &slots.back();
    }
    if (slot->rel->Insert(ht.tuple)) {
      // The fresh tuple is the last row; flag its position as imported.
      slot->provenance->resize(slot->rel->size(), 0);
      slot->provenance->back() = 1;
      if (journal_ != nullptr) journal_->LogInsert(ht.relation, ht.tuple);
      slot->added.push_back(ht.tuple);
    }
  }
  std::map<std::string, std::vector<Tuple>> fresh;
  for (Slot& slot : slots) {
    if (!slot.added.empty()) fresh.emplace(*slot.name, std::move(slot.added));
  }
  return fresh;
}

Status Wrapper::InsertLocal(const std::string& relation,
                            const std::vector<Tuple>& rows) {
  CODB_ASSIGN_OR_RETURN(Relation * rel, storage_->Get(relation));
  rel->Reserve(rel->size() + rows.size());
  std::vector<Tuple>* pending = nullptr;
  for (const Tuple& row : rows) {
    // Insert without touching imported_: the provenance vector stays
    // short, so DropImported treats these rows as local and keeps them.
    if (!rel->Insert(row)) continue;
    if (journal_ != nullptr) journal_->LogInsert(relation, row);
    if (pending == nullptr) pending = &pending_delta_[relation];
    pending->push_back(row);
  }
  return Status::Ok();
}

std::map<std::string, std::vector<Tuple>> Wrapper::TakePendingDelta() {
  std::map<std::string, std::vector<Tuple>> taken;
  taken.swap(pending_delta_);
  return taken;
}

void Wrapper::DropImported() {
  for (auto& [relation_name, provenance] : imported_) {
    const Relation* relation = storage_->Find(relation_name);
    if (relation == nullptr || provenance.empty()) continue;
    std::vector<Tuple> kept;
    kept.reserve(relation->size());
    const RowStore& rows = relation->rows();
    for (size_t row = 0; row < rows.size(); ++row) {
      if (row >= provenance.size() || provenance[row] == 0) {
        kept.push_back(rows[row]);
      }
    }
    // A fresh relation, not an in-place shrink: a query snapshot sharing
    // the old one keeps its pre-refresh rows.
    storage_->Replace(relation_name, kept);
  }
  imported_.clear();
}

Result<std::vector<Tuple>> Wrapper::EvaluateQuery(
    const ConjunctiveQuery& query) const {
  if (query.head.size() != 1) {
    return Status::InvalidArgument(
        "node queries must have a single head atom");
  }
  if (!query.ExistentialVars().empty()) {
    return Status::InvalidArgument(
        "node queries must have a safe head (no existential variables)");
  }
  std::vector<std::string> output;
  for (const Term& term : query.head[0].terms) {
    if (term.is_var()) output.push_back(term.var());
  }
  DatabaseSchema schema = storage_->Schema();
  CODB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                        CompiledQuery::Compile(query, schema, output));
  return compiled.Evaluate(*storage_);
}

}  // namespace codb
