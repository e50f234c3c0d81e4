// Catalog of relations: the in-memory stand-in for the node's local
// database (LDB). See DESIGN.md §1 for the substitution rationale.
//
// Also the evaluator's input interface, RelationSource, and its second
// implementation, Overlay: the copy-free read overlay a query answers from
// (DESIGN.md §2.6).

#ifndef CODB_RELATION_DATABASE_H_
#define CODB_RELATION_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "relation/schema.h"
#include "util/status.h"

namespace codb {

// Resolves relation names to the views the evaluator reads. A Database
// serves every relation whole; an Overlay serves a snapshot plus a layer.
class RelationSource {
 public:
  // The view of `name`; a default (empty) view when there is no such
  // relation.
  virtual RelationView View(const std::string& name) const = 0;

 protected:
  ~RelationSource() = default;
};

class Database : public RelationSource {
 public:
  Database() = default;

  // Databases own their relations and are not copyable; use Snapshot() to
  // capture state for later comparison.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  Status CreateRelation(RelationSchema schema);

  Relation* Find(const std::string& name);
  const Relation* Find(const std::string& name) const;

  // Lookup that reports an error instead of returning nullptr.
  Result<Relation*> Get(const std::string& name);

  // The whole relation `name`, with no layer.
  RelationView View(const std::string& name) const override;

  // Shared ownership of relation `name` (null if absent): the relation
  // stays alive, and keeps its rows, after a Replace swaps it out.
  std::shared_ptr<const Relation> Share(const std::string& name) const;

  // Swaps in a fresh relation of the same schema holding `rows` (set
  // semantics, in order); the only way a relation loses rows. A row the
  // old relation held keeps its import provenance (Relation::IsImported).
  // Holders of the old relation keep reading the old rows; the new one
  // builds its indexes on first probe. Invalidates Relation pointers to
  // the old one.
  Status Replace(const std::string& name, const std::vector<Tuple>& rows);

  std::vector<std::string> RelationNames() const;

  // Schema of every relation (the full catalog; the exported subset is the
  // wrapper's DbsRepository concern).
  DatabaseSchema Schema() const;

  // Total number of tuples across relations.
  size_t TotalTuples() const;

  // Deep copy of all contents, keyed by relation name.
  std::map<std::string, std::vector<Tuple>> Snapshot() const;

  // Restores a snapshot taken from a database with the same schema, one
  // Replace per relation it names.
  Status Restore(const std::map<std::string, std::vector<Tuple>>& snapshot);

  std::string ToString() const;

 private:
  // std::map for deterministic iteration order in dumps and the oracle.
  std::map<std::string, std::shared_ptr<Relation>> relations_;
};

// A copy-free read overlay of a store: per relation, the rows the store
// held when the overlay opened plus a layer of rows added to the overlay
// alone. Opening costs O(relations): the overlay shares each relation and
// remembers its row count. Relations only grow, and a Replace leaves a
// shared relation as it was, so rows [0, count) keep reading what they read
// at opening while the store moves on. Not locked: the owner serializes
// every call with the store's writers (DESIGN.md §10).
class Overlay : public RelationSource {
 public:
  explicit Overlay(const Database& store);

  // Adds `tuple` to the layer of `relation` unless the snapshot or the
  // layer already holds it; true if it was new. NotFound for a relation
  // the store did not have at opening.
  Result<bool> Insert(const std::string& relation, const Tuple& tuple);

  RelationView View(const std::string& name) const override;

  // Rows held in the layers (the overlay's own memory; the snapshot part
  // is shared with the store).
  size_t LayerRows() const { return layer_rows_; }

 private:
  struct Part {
    std::shared_ptr<const Relation> base;
    size_t end = 0;
    std::unique_ptr<Relation> layer;  // created on the first insert
  };

  std::map<std::string, Part> parts_;
  size_t layer_rows_ = 0;
};

}  // namespace codb

#endif  // CODB_RELATION_DATABASE_H_
