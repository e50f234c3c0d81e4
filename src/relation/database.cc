#include "relation/database.h"

namespace codb {

Status Database::CreateRelation(RelationSchema schema) {
  std::string name = schema.name();  // copy: `schema` is moved below
  if (relations_.find(name) != relations_.end()) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto relation = std::make_shared<Relation>(std::move(schema));
  relations_.emplace(std::move(name), std::move(relation));
  return Status::Ok();
}

Relation* Database::Find(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Result<Relation*> Database::Get(const std::string& name) {
  Relation* r = Find(name);
  if (r == nullptr) {
    return Status::NotFound("relation '" + name + "' does not exist");
  }
  return r;
}

RelationView Database::View(const std::string& name) const {
  return RelationView(Find(name));
}

std::shared_ptr<const Relation> Database::Share(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second;
}

Status Database::Replace(const std::string& name,
                         const std::vector<Tuple>& rows) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' does not exist");
  }
  const Relation& old = *it->second;
  auto fresh = std::make_shared<Relation>(old.schema());
  fresh->Reserve(rows.size());
  for (const Tuple& tuple : rows) {
    // A kept row keeps its import provenance, wherever it lands.
    fresh->Insert(tuple,
                  old.HasImports() && old.IsImported(old.RowOf(tuple)));
  }
  it->second = std::move(fresh);
  return Status::Ok();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

DatabaseSchema Database::Schema() const {
  DatabaseSchema schema;
  for (const auto& [name, relation] : relations_) {
    // Names are unique in the catalog, so AddRelation cannot fail.
    schema.AddRelation(relation->schema());
  }
  return schema;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, relation] : relations_) total += relation->size();
  return total;
}

std::map<std::string, std::vector<Tuple>> Database::Snapshot() const {
  std::map<std::string, std::vector<Tuple>> snapshot;
  for (const auto& [name, relation] : relations_) {
    const RowStore& rows = relation->rows();
    snapshot[name].assign(rows.begin(), rows.end());
  }
  return snapshot;
}

Status Database::Restore(
    const std::map<std::string, std::vector<Tuple>>& snapshot) {
  for (const auto& [name, rows] : snapshot) {
    CODB_RETURN_IF_ERROR(Replace(name, rows));
  }
  return Status::Ok();
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, relation] : relations_) {
    out += relation->ToString();
    out += "\n";
  }
  return out;
}

Overlay::Overlay(const Database& store) {
  for (const std::string& name : store.RelationNames()) {
    std::shared_ptr<const Relation> base = store.Share(name);
    size_t end = base->size();
    parts_.emplace(name, Part{std::move(base), end, nullptr});
  }
}

Result<bool> Overlay::Insert(const std::string& relation,
                             const Tuple& tuple) {
  auto it = parts_.find(relation);
  if (it == parts_.end()) {
    return Status::NotFound("relation '" + relation + "' does not exist");
  }
  Part& part = it->second;
  // A row the store appended after opening lies past `end`: not part of
  // the snapshot, so it joins the layer like any fetched row.
  uint32_t row = part.base->RowOf(tuple);
  if (row != Relation::kNoRow && row < part.end) return false;
  if (part.layer == nullptr) {
    part.layer = std::make_unique<Relation>(part.base->schema());
  }
  if (!part.layer->Insert(tuple)) return false;
  ++layer_rows_;
  return true;
}

RelationView Overlay::View(const std::string& name) const {
  auto it = parts_.find(name);
  if (it == parts_.end()) return RelationView();
  const Part& part = it->second;
  return RelationView(part.base.get(), part.end, part.layer.get());
}

}  // namespace codb
