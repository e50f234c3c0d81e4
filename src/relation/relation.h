// Set-semantics relation instances.
//
// The global-update algorithm repeatedly computes T' = T \ R ("we first
// remove from T those tuples which are already in R") and R += T', so the
// relation offers exactly those primitives plus scans and hash indexes used
// by the join evaluator.
//
// Relations only grow: there is no erase and no clear. A store that must
// shrink (a refresh dropping its imports, a restore) builds a fresh
// relation and swaps it in with Database::Replace, so whoever still holds
// the old one (a query snapshot) keeps reading the old rows. Growth-only
// makes a row count a snapshot: rows [0, n) never change once written.
//
// Index lifecycle: per-column and composite (multi-column) hash indexes are
// built lazily on first probe and then maintained *incrementally* — every
// subsequent insert appends the new row to each built index in O(arity).
// Indexes are never invalidated or rebuilt. Buckets hold row positions
// into rows(), and every bucket lists its positions in ascending order
// (RelationView relies on that). Rows themselves never move either: the
// RowStore (relation/row_store.h) grows by segments instead of
// reallocating, so an insert never copies the rows already there.

#ifndef CODB_RELATION_RELATION_H_
#define CODB_RELATION_RELATION_H_

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relation/row_store.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace codb {

class Relation {
 public:
  // Positions into rows() of the tuples matching a probe.
  using RowIndexList = std::vector<uint32_t>;
  // RowOf's answer for a tuple the relation does not hold.
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  explicit Relation(RelationSchema schema)
      : schema_(std::move(schema)),
        index_(0, RowRefHash{&rows_}, RowRefEq{&rows_}) {}

  // The dedup index hashes row positions through rows_, so the object must
  // stay put (Database owns relations behind shared_ptr).
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = delete;
  Relation& operator=(Relation&&) = delete;

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  int arity() const { return schema_.arity(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  bool Contains(const Tuple& tuple) const {
    // Heterogeneous (C++20) lookup: hashes/compares the probe tuple against
    // stored row positions without materializing a key copy.
    return index_.find(tuple) != index_.end();
  }

  // Position of `tuple` in rows(), or kNoRow. One dedup-index lookup; a
  // snapshot of the first n rows holds the tuple iff RowOf(tuple) < n.
  uint32_t RowOf(const Tuple& tuple) const {
    auto it = index_.find(tuple);
    return it == index_.end() ? kNoRow : *it;
  }

  // Inserts if absent; returns true if the tuple was new. Arity-checked.
  bool Insert(const Tuple& tuple);

  // Inserts a batch and returns the sub-batch that was actually new — the
  // T' = T \ R step of the paper, fused with R += T'.
  std::vector<Tuple> InsertNew(const std::vector<Tuple>& batch);

  // Pre-sizes the dedup set and any built column indexes for `n` total
  // rows, so a known-size insert burst avoids incremental rehashing. A
  // no-op when already at least that large. Row storage needs none: it
  // grows by segments and never moves.
  void Reserve(size_t n);

  // The tuples of `batch` not present in this relation (pure set diff; does
  // not modify the relation).
  std::vector<Tuple> Difference(const std::vector<Tuple>& batch) const;

  // Ordered scan access. Insertion order; deterministic given a
  // deterministic caller.
  const RowStore& rows() const { return rows_; }

  // Positions of the tuples whose column `column` equals `key`, ascending.
  // The per-column hash index is built lazily on first probe and appended
  // to on every later insert; take a copy of the result before inserting if
  // iterating across modifications.
  const RowIndexList& Probe(int column, const Value& key) const;

  // Positions of the tuples matching `keys[i]` on `columns[i]` for every i.
  // `columns` must be strictly ascending and non-empty. Backed by a lazily
  // created composite hash index on that column set, maintained
  // incrementally like the single-column ones. Ascending, like Probe.
  const RowIndexList& ProbeComposite(const std::vector<int>& columns,
                                     const std::vector<Value>& keys) const;

  // Total wire size of all rows (for volume statistics).
  size_t WireSize() const;

  std::string ToString() const;

 private:
  struct ColumnIndex {
    bool built = false;
    std::unordered_map<Value, RowIndexList, ValueHash> buckets;
  };
  struct CompositeIndex {
    std::unordered_map<Tuple, RowIndexList, TupleHash> buckets;
  };

  // The dedup set stores row positions, not tuple copies: an element hashes
  // and compares as the tuple it denotes in *rows. `is_transparent` lets a
  // probe Tuple be looked up directly against stored positions.
  struct RowRefHash {
    const RowStore* rows;
    using is_transparent = void;
    size_t operator()(uint32_t row) const { return (*rows)[row].Hash(); }
    size_t operator()(const Tuple& t) const { return t.Hash(); }
  };
  struct RowRefEq {
    const RowStore* rows;
    using is_transparent = void;
    bool operator()(uint32_t a, uint32_t b) const {
      return a == b || (*rows)[a] == (*rows)[b];
    }
    bool operator()(uint32_t a, const Tuple& t) const {
      return (*rows)[a] == t;
    }
    bool operator()(const Tuple& t, uint32_t a) const {
      return (*rows)[a] == t;
    }
  };

  // Adds row `row` (== its position in rows_) to every built index.
  void AppendToIndexes(const Tuple& tuple, uint32_t row) const;

  // The lazy index builds behind Probe/ProbeComposite. The composite one
  // returns the index, so ProbeComposite pays a single map lookup.
  void EnsureColumnIndex(int column) const;
  CompositeIndex& EnsureCompositeIndex(const std::vector<int>& columns) const;

  static Tuple ProjectColumns(const Tuple& tuple,
                              const std::vector<int>& columns);

  RelationSchema schema_;
  RowStore rows_;
  std::unordered_set<uint32_t, RowRefHash, RowRefEq> index_;

  // Lazily built, incrementally maintained probe indexes. Mutable because
  // probing is logically const. Not internally locked: mutation (inserts,
  // first-probe builds) happens on the peer's single handler thread, under
  // the owning node's mutex (DESIGN.md §10).
  mutable std::vector<ColumnIndex> column_indexes_;
  mutable std::map<std::vector<int>, CompositeIndex> composite_indexes_;
  static const RowIndexList kEmptyBucket;
};

// What the evaluator reads of one relation: rows [0, end) of `base` plus
// every row of an optional `layer` that the owner keeps disjoint from that
// prefix. A plain store read is the whole relation with no layer; a query
// overlay (Overlay, relation/database.h) is a row-count snapshot of a store
// relation plus the rows fetched for the query. Scans read both parts.
// Probes use the base's own persistent indexes and stop at the first
// position >= end (buckets are ascending), then probe the layer. A default
// view is an absent relation: no rows. The view holds plain pointers; its
// provider keeps both relations alive while it is read.
class RelationView {
 public:
  RelationView() = default;
  explicit RelationView(const Relation* relation)
      : base_(relation), end_(relation != nullptr ? relation->size() : 0) {}
  RelationView(const Relation* base, size_t end, const Relation* layer)
      : base_(base), end_(end), layer_(layer) {}

  bool exists() const { return base_ != nullptr; }
  size_t size() const {
    return end_ + (layer_ != nullptr ? layer_->size() : 0);
  }

  // Calls fn(tuple) for every row: the prefix in order, then the layer.
  template <typename Fn>
  void Scan(Fn&& fn) const {
    if (base_ == nullptr) return;
    base_->rows().ForEach(end_, fn);
    if (layer_ != nullptr) layer_->rows().ForEach(layer_->size(), fn);
  }

  // Calls fn(tuple) for every row whose column `column` equals `key`.
  template <typename Fn>
  void Probe(int column, const Value& key, Fn&& fn) const {
    if (base_ == nullptr) return;
    Visit(*base_, base_->Probe(column, key), end_, fn);
    if (layer_ != nullptr) {
      Visit(*layer_, layer_->Probe(column, key), layer_->size(), fn);
    }
  }

  // Calls fn(tuple) for every row matching `keys` on `columns` (strictly
  // ascending, see Relation::ProbeComposite).
  template <typename Fn>
  void ProbeComposite(const std::vector<int>& columns,
                      const std::vector<Value>& keys, Fn&& fn) const {
    if (base_ == nullptr) return;
    Visit(*base_, base_->ProbeComposite(columns, keys), end_, fn);
    if (layer_ != nullptr) {
      Visit(*layer_, layer_->ProbeComposite(columns, keys), layer_->size(),
            fn);
    }
  }

 private:
  template <typename Fn>
  static void Visit(const Relation& relation,
                    const Relation::RowIndexList& bucket, size_t end,
                    Fn& fn) {
    // Ascending: the first position past `end` ends the snapshot's rows.
    relation.rows().ForEachListed(bucket, end, fn);
  }

  const Relation* base_ = nullptr;
  size_t end_ = 0;
  const Relation* layer_ = nullptr;
};

}  // namespace codb

#endif  // CODB_RELATION_RELATION_H_
