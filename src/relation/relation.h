// Set-semantics relation instances.
//
// The global-update algorithm repeatedly computes T' = T \ R ("we first
// remove from T those tuples which are already in R") and R += T', so the
// relation offers exactly those primitives plus scans and hash indexes used
// by the join evaluator.
//
// Index lifecycle: per-column and composite (multi-column) hash indexes are
// built lazily on first probe and then maintained *incrementally* — every
// subsequent insert appends the new row to each built index in O(arity).
// Indexes are never invalidated or rebuilt; Clear resets them. Buckets hold
// stable row positions into rows() rather than pointers, so growth of the
// backing vector can never dangle a bucket entry.

#ifndef CODB_RELATION_RELATION_H_
#define CODB_RELATION_RELATION_H_

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace codb {

class Relation {
 public:
  // Positions into rows() of the tuples matching a probe.
  using RowIndexList = std::vector<uint32_t>;

  explicit Relation(RelationSchema schema)
      : schema_(std::move(schema)),
        index_(0, RowRefHash{&rows_}, RowRefEq{&rows_}) {}

  // The dedup index hashes row positions through rows_, so the object must
  // stay put (Database owns relations behind unique_ptr).
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

  // Inserts if absent; returns true if the tuple was new. Arity-checked.
  bool Insert(const Tuple& tuple);

  // Inserts a batch and returns the sub-batch that was actually new — the
  // T' = T \ R step of the paper, fused with R += T'.
  std::vector<Tuple> InsertNew(const std::vector<Tuple>& batch);

  // Pre-sizes row storage, the dedup set, and any built column indexes for
  // `n` total rows, so a known-size insert burst avoids incremental
  // rehashing. A no-op when already at least that large.
  void Reserve(size_t n);

  // The tuples of `batch` not present in this relation (pure set diff; does
  // not modify the relation).
  std::vector<Tuple> Difference(const std::vector<Tuple>& batch) const;

  // Ordered scan access. Insertion order; deterministic given a
  // deterministic caller.
  const std::vector<Tuple>& rows() const { return rows_; }

  void Clear();

  // Positions of the tuples whose column `column` equals `key`. The
  // per-column hash index is built lazily on first probe and appended to on
  // every later insert; the result stays valid until Clear, but take a copy
  // before inserting if iterating across modifications.
  const RowIndexList& Probe(int column, const Value& key) const;

  // Positions of the tuples matching `keys[i]` on `columns[i]` for every i.
  // `columns` must be strictly ascending and non-empty. Backed by a lazily
  // created composite hash index on that column set, maintained
  // incrementally like the single-column ones.
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
    const std::vector<Tuple>* rows;
    using is_transparent = void;
    size_t operator()(uint32_t row) const { return (*rows)[row].Hash(); }
    size_t operator()(const Tuple& t) const { return t.Hash(); }
  };
  struct RowRefEq {
    const std::vector<Tuple>* rows;
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
  std::vector<Tuple> rows_;
  std::unordered_set<uint32_t, RowRefHash, RowRefEq> index_;

  // Lazily built, incrementally maintained probe indexes. Mutable because
  // probing is logically const. Not internally locked: mutation (inserts,
  // first-probe builds) happens on the peer's single handler thread, under
  // the owning node's mutex (DESIGN.md §10).
  mutable std::vector<ColumnIndex> column_indexes_;
  mutable std::map<std::vector<int>, CompositeIndex> composite_indexes_;
  static const RowIndexList kEmptyBucket;
};

}  // namespace codb

#endif  // CODB_RELATION_RELATION_H_
