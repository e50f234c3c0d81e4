// The Wrapper: the module between the DBM and the local database.
//
// Per the paper (section 2), the Wrapper "manages connections to LDB and
// executes input database manipulation operations", adapts to the
// underlying database, and — when the LDB is absent — executes joins and
// projections itself so the node can still act as a mediator. It also
// retrieves and maintains the DBS.
//
// In this reproduction the LDB is the in-memory relation engine; the
// wrapper boundary is kept so a different backend could be slotted in
// without touching the DBM. A mediator wrapper owns a transient store laid
// out after the DBS, which holds relayed data during updates.
//
// Threading (DESIGN.md §10): the wrapper takes no locks. Every caller —
// the node's handlers on its one delivery thread, the public API and the
// eviction fan-out — holds Node::mutex_, which serializes store writes
// and reads, journal appends and the pending delta.

#ifndef CODB_WRAPPER_WRAPPER_H_
#define CODB_WRAPPER_WRAPPER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/rule.h"
#include "relation/database.h"
#include "relation/wal.h"
#include "wrapper/dbs_repository.h"

namespace codb {

class Wrapper {
 public:
  // Node with a local database. The wrapper does not own `ldb`.
  static Result<std::unique_ptr<Wrapper>> ForDatabase(
      Database* ldb, DatabaseSchema exported);

  // Mediator node: no LDB; a transient store is created from `exported`.
  static Result<std::unique_ptr<Wrapper>> ForMediator(
      DatabaseSchema exported);

  bool is_mediator() const { return is_mediator_; }
  const DbsRepository& dbs() const { return dbs_; }

  // The store queries and rules execute against: the LDB, or the transient
  // store for mediators.
  Database& storage() { return *storage_; }
  const Database& storage() const { return *storage_; }

  // Inserts head tuples produced by a rule firing and returns, per
  // relation, only the tuples that were actually new (the T' of the
  // paper's dedup step). Unknown relations are an error. Inserted rows
  // are flagged *imported* in their relation (Relation::IsImported): the
  // provenance a refresh update drops by. The flag stays with the row, so
  // a deletion at this node (Database::Replace) cannot shift it onto
  // another row. Each relation is reserved for the tuples the batch aims
  // at it before the first insert.
  Result<std::map<std::string, std::vector<Tuple>>> ApplyHeadTuples(
      const std::vector<HeadTuple>& tuples);

  // Inserts rows as *local* base data: NOT marked imported (refresh
  // updates keep them), journaled like any other durable insert, and the
  // actually-new rows are accumulated as the pending delta batch the next
  // incremental update ships (DESIGN.md §14). Unknown relations are an
  // error; duplicate rows are dropped (set semantics) and do not enter
  // the delta.
  Status InsertLocal(const std::string& relation,
                     const std::vector<Tuple>& rows);

  // Hands over — and clears — the rows InsertLocal accumulated since the
  // last call: the seed of UpdateManager::StartIncrementalUpdate.
  std::map<std::string, std::vector<Tuple>> TakePendingDelta();

  // Removes every row flagged imported, keeping local (seeded or
  // user-inserted) data. A refresh update calls this before the initial
  // link evaluation, so source-side deletions propagate: data no longer
  // derivable simply never comes back. Each shrunk relation is
  // rebuilt and swapped in (Database::Replace); open query snapshots keep
  // the old one.
  void DropImported();

  // Evaluates a query whose body refers to this node's exported schema.
  // Output layout: the distinguished variables of the (single) head atom,
  // in head-term order. Compiles per call; rule hot paths use the
  // precompiled CoordinationRule machinery instead.
  Result<std::vector<Tuple>> EvaluateQuery(const ConjunctiveQuery& query)
      const;

  // Total tuples in storage (report/statistics).
  size_t StoredTuples() const { return storage_->TotalTuples(); }

  // Attaches a journal sink: from now on every tuple that
  // ApplyHeadTuples actually inserts is logged, so a restarted node can
  // rebuild its imports (WriteAheadLog::ReplayInto, or the durable WAL's
  // recovery). Pass nullptr to detach. The sink is not owned.
  void AttachJournal(JournalSink* journal) { journal_ = journal; }
  const JournalSink* journal() const { return journal_; }

 private:
  Wrapper() = default;

  bool is_mediator_ = false;
  Database* ldb_ = nullptr;                   // null for mediators
  std::unique_ptr<Database> transient_;       // owned store for mediators
  Database* storage_ = nullptr;               // ldb_ or transient_.get()
  JournalSink* journal_ = nullptr;            // optional, not owned
  // Local inserts not yet shipped by an incremental update, per relation.
  std::map<std::string, std::vector<Tuple>> pending_delta_;
  DbsRepository dbs_;
};

}  // namespace codb

#endif  // CODB_WRAPPER_WRAPPER_H_
