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
  // scan — cheaper than a map lookup and a grouping copy per tuple. A
  // first pass counts what the batch aims at each relation, so each is
  // reserved for its own share before any insert.
  struct Slot {
    const std::string* name;
    Relation* rel;
    size_t aimed = 0;
    std::vector<Tuple> added;
  };
  std::vector<Slot> slots;
  std::vector<uint32_t> slot_of;
  slot_of.reserve(tuples.size());
  for (const HeadTuple& ht : tuples) {
    size_t at = 0;
    while (at < slots.size() && *slots[at].name != ht.relation) ++at;
    if (at == slots.size()) {
      CODB_ASSIGN_OR_RETURN(Relation * rel, storage_->Get(ht.relation));
      slots.push_back(Slot{&ht.relation, rel, 0, {}});
    }
    ++slots[at].aimed;
    slot_of.push_back(static_cast<uint32_t>(at));
  }
  for (Slot& slot : slots) slot.rel->Reserve(slot.rel->size() + slot.aimed);
  for (size_t i = 0; i < tuples.size(); ++i) {
    const HeadTuple& ht = tuples[i];
    Slot& slot = slots[slot_of[i]];
    if (slot.rel->Insert(ht.tuple, /*imported=*/true)) {
      if (journal_ != nullptr) journal_->LogInsert(ht.relation, ht.tuple);
      slot.added.push_back(ht.tuple);
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
    // Not imported: DropImported keeps these rows.
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
  for (const std::string& name : storage_->RelationNames()) {
    const Relation* relation = storage_->Find(name);
    if (!relation->HasImports()) continue;
    std::vector<Tuple> kept;
    kept.reserve(relation->size());
    const RowStore& rows = relation->rows();
    for (size_t row = 0; row < rows.size(); ++row) {
      if (!relation->IsImported(static_cast<uint32_t>(row))) {
        kept.push_back(rows[row]);
      }
    }
    // A fresh relation, not an in-place shrink: a query snapshot sharing
    // the old one keeps its pre-refresh rows.
    storage_->Replace(name, kept);
  }
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
