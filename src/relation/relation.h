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
// Index lifecycle: per-column and composite (multi-column) probe indexes
// are built lazily on first probe and then maintained *incrementally* —
// every later insert links the new row into each built index in
// O(arity). Indexes are never invalidated or rebuilt.
//
// Every per-row set here is a PositionTable (relation/position_table.h)
// of uint32_t positions, so no entry is a heap node of its own. The dedup
// index holds row positions into rows(). A probe index holds key ids: a
// key names its first row, its last row and its row count, and each row
// names the next row of its key, so a key's rows form a chain in
// ascending position order (RelationView relies on that). Rows never move
// either: the RowStore (relation/row_store.h) grows by segments instead of
// reallocating, so an insert never copies the rows already there.

#ifndef CODB_RELATION_RELATION_H_
#define CODB_RELATION_RELATION_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "relation/position_table.h"
#include "relation/row_store.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace codb {

class Relation {
 private:
  struct KeyIndex;

 public:
  // RowOf's answer for a tuple the relation does not hold.
  static constexpr uint32_t kNoRow = PositionTable::kNone;

  // The positions into rows() of the tuples matching one probe, ascending.
  // A live view: rows inserted with the same key after the probe show up
  // in it (size() included), and it stays valid as long as the relation.
  // A probe of a key no row holds yet gives an empty bucket that stays
  // empty. Iterators are invalidated by inserts, like a vector's.
  class Bucket {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = uint32_t;
      using difference_type = std::ptrdiff_t;
      using pointer = const uint32_t*;
      using reference = uint32_t;

      const_iterator() = default;

      uint32_t operator*() const { return row_; }
      const_iterator& operator++() {
        row_ = (*next_)[row_];
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const const_iterator& other) const {
        return row_ == other.row_;
      }

     private:
      friend class Bucket;
      const_iterator(const std::vector<uint32_t>* next, uint32_t row)
          : next_(next), row_(row) {}

      const std::vector<uint32_t>* next_ = nullptr;
      uint32_t row_ = kNoRow;
    };

    Bucket() = default;

    // O(1): the key keeps its row count.
    size_t size() const {
      return index_ == nullptr ? 0 : index_->chains[key_].count;
    }
    bool empty() const { return size() == 0; }

    const_iterator begin() const {
      return index_ == nullptr
                 ? end()
                 : const_iterator(&index_->next, index_->chains[key_].first);
    }
    const_iterator end() const { return const_iterator(); }

   private:
    friend class Relation;
    Bucket(const KeyIndex* index, uint32_t key) : index_(index), key_(key) {}

    const KeyIndex* index_ = nullptr;  // null: no row matches
    uint32_t key_ = 0;
  };

  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  // Indexes and buckets point into the relation, so the object must stay
  // put (Database owns relations behind shared_ptr).
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = delete;
  Relation& operator=(Relation&&) = delete;

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  int arity() const { return schema_.arity(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  bool Contains(const Tuple& tuple) const { return RowOf(tuple) != kNoRow; }

  // Position of `tuple` in rows(), or kNoRow. One dedup-index lookup; a
  // snapshot of the first n rows holds the tuple iff RowOf(tuple) < n.
  uint32_t RowOf(const Tuple& tuple) const {
    return index_.Find(PositionTable::Fold(tuple.Hash()),
                       [&](uint32_t row) { return rows_[row] == tuple; });
  }

  // Inserts if absent; returns true if the tuple was new. Arity-checked.
  // A new row inserted as `imported` arrived over the network: a refresh
  // drops it and keeps every other row (Wrapper::DropImported). A row
  // already present keeps the provenance it has.
  bool Insert(const Tuple& tuple, bool imported = false);

  // Import provenance of row `row` (see Insert); false for kNoRow.
  bool IsImported(uint32_t row) const {
    return row < imported_.size() && imported_[row];
  }
  // True if some row is imported.
  bool HasImports() const { return !imported_.empty(); }

  // Inserts a batch and returns the sub-batch that was actually new — the
  // T' = T \ R step of the paper, fused with R += T'.
  std::vector<Tuple> InsertNew(const std::vector<Tuple>& batch);

  // Pre-sizes the dedup index and the built probe indexes for `n` total
  // rows, so a known-size insert burst does not grow them one step at a
  // time. Growth stays geometric under repeated slightly larger calls.
  // Row storage needs none: it grows by segments and never moves.
  void Reserve(size_t n);

  // The tuples of `batch` not present in this relation (pure set diff; does
  // not modify the relation).
  std::vector<Tuple> Difference(const std::vector<Tuple>& batch) const;

  // Ordered scan access. Insertion order; deterministic given a
  // deterministic caller.
  const RowStore& rows() const { return rows_; }

  // The rows whose column `column` equals `key`. The column's index is
  // built on the first probe and linked into on every later insert.
  Bucket Probe(int column, const Value& key) const;

  // The rows matching `keys[i]` on `columns[i]` for every i. `columns`
  // must be strictly ascending and non-empty. Backed by a composite index
  // on that column set, created on first use and maintained like the
  // single-column ones.
  Bucket ProbeComposite(const std::vector<int>& columns,
                        const std::vector<Value>& keys) const;

  // Total wire size of all rows (for volume statistics).
  size_t WireSize() const;

  std::string ToString() const;

 private:
  // One key's rows: the chain first -> next[first] -> ... -> last.
  struct Chain {
    uint32_t first;
    uint32_t last;
    uint32_t count;
  };
  // A probe index on one column set. `keys` holds key ids into `chains`,
  // hashed by the key's values and compared through the key's first row.
  struct KeyIndex {
    std::vector<int> columns;       // ascending; empty until built
    PositionTable keys;
    std::vector<Chain> chains;      // by key id
    std::vector<uint32_t> next;     // by row: its key's next row, or kNoRow
  };

  // Builds `index` over `columns` from the rows already held.
  void BuildIndex(KeyIndex& index, const std::vector<int>& columns) const;
  // Links row `row` into `index`.
  void AppendToIndex(KeyIndex& index, uint32_t row) const;
  // Links row `row` into every built index.
  void AppendToIndexes(uint32_t row) const;
  // The bucket of the key keys[0, columns.size()) in a built index.
  Bucket Lookup(const KeyIndex& index, const Value* keys) const;
  static void ReserveIndex(KeyIndex& index, size_t n);

  RelationSchema schema_;
  RowStore rows_;
  PositionTable index_;        // the dedup index: row positions
  std::vector<bool> imported_;  // by row; rows past its end are local

  // Lazily built, incrementally maintained probe indexes. Mutable because
  // probing is logically const. Not internally locked: mutation (inserts,
  // first-probe builds) happens on the peer's single handler thread, under
  // the owning node's mutex (DESIGN.md §10). Neither container moves an
  // index once built, so buckets may point at them.
  mutable std::vector<KeyIndex> column_indexes_;  // by column
  mutable std::map<std::vector<int>, KeyIndex> composite_indexes_;
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
  static void Visit(const Relation& relation, const Relation::Bucket& bucket,
                    size_t end, Fn& fn) {
    const RowStore& rows = relation.rows();
    for (uint32_t row : bucket) {
      // Ascending: the first position past `end` ends the snapshot's rows.
      if (row >= end) break;
      fn(rows[row]);
    }
  }

  const Relation* base_ = nullptr;
  size_t end_ = 0;
  const Relation* layer_ = nullptr;
};

}  // namespace codb

#endif  // CODB_RELATION_RELATION_H_
