#include "relation/relation.h"

#include <algorithm>
#include <cassert>

namespace codb {

const Relation::RowIndexList Relation::kEmptyBucket = {};

bool Relation::Insert(const Tuple& tuple) {
  assert(tuple.arity() == arity() && "tuple arity does not match schema");
  // Speculative append: pushing the row first lets the dedup set resolve
  // presence with a single hash+probe (insert) instead of find-then-insert.
  // A duplicate is popped right back; the set never saw it.
  rows_.push_back(tuple);
  uint32_t row = static_cast<uint32_t>(rows_.size() - 1);
  if (!index_.insert(row).second) {
    rows_.pop_back();
    return false;
  }
  AppendToIndexes(rows_.back(), row);
  return true;
}

std::vector<Tuple> Relation::InsertNew(const std::vector<Tuple>& batch) {
  Reserve(rows_.size() + batch.size());
  std::vector<Tuple> fresh;
  for (const Tuple& t : batch) {
    if (Insert(t)) fresh.push_back(t);
  }
  return fresh;
}

void Relation::Reserve(size_t n) {
  // Grow at least geometrically: repeated calls with slightly larger `n`
  // (one per incoming batch) must not degrade the containers' amortized
  // doubling into a full rehash per call.
  size_t ceiling = static_cast<size_t>(
      static_cast<float>(index_.bucket_count()) * index_.max_load_factor());
  if (n > ceiling) index_.reserve(std::max(n, ceiling * 2));
  for (ColumnIndex& ci : column_indexes_) {
    if (!ci.built) continue;
    size_t bucket_ceiling = static_cast<size_t>(
        static_cast<float>(ci.buckets.bucket_count()) *
        ci.buckets.max_load_factor());
    if (n > bucket_ceiling) {
      ci.buckets.reserve(std::max(n, bucket_ceiling * 2));
    }
  }
}

std::vector<Tuple> Relation::Difference(
    const std::vector<Tuple>& batch) const {
  std::vector<Tuple> out;
  for (const Tuple& t : batch) {
    if (!Contains(t)) out.push_back(t);
  }
  return out;
}

void Relation::AppendToIndexes(const Tuple& tuple, uint32_t row) const {
  for (size_t c = 0; c < column_indexes_.size(); ++c) {
    ColumnIndex& ci = column_indexes_[c];
    if (ci.built) {
      ci.buckets[tuple.at(static_cast<int>(c))].push_back(row);
    }
  }
  for (auto& [columns, composite] : composite_indexes_) {
    composite.buckets[ProjectColumns(tuple, columns)].push_back(row);
  }
}

Tuple Relation::ProjectColumns(const Tuple& tuple,
                               const std::vector<int>& columns) {
  if (columns.size() <= Tuple::kInlineCapacity) {
    Value key[Tuple::kInlineCapacity];
    for (size_t i = 0; i < columns.size(); ++i) {
      key[i] = tuple.at(columns[i]);
    }
    return Tuple(key, columns.size());
  }
  std::vector<Value> key;
  key.reserve(columns.size());
  for (int c : columns) key.push_back(tuple.at(c));
  return Tuple(key);
}

void Relation::EnsureColumnIndex(int column) const {
  assert(column >= 0 && column < arity());
  if (column_indexes_.empty()) {
    column_indexes_.resize(static_cast<size_t>(arity()));
  }
  ColumnIndex& ci = column_indexes_[static_cast<size_t>(column)];
  if (ci.built) return;
  ci.buckets.reserve(rows_.size());
  for (size_t row = 0; row < rows_.size(); ++row) {
    ci.buckets[rows_[row].at(column)].push_back(static_cast<uint32_t>(row));
  }
  ci.built = true;
}

Relation::CompositeIndex& Relation::EnsureCompositeIndex(
    const std::vector<int>& columns) const {
  assert(!columns.empty());
  assert(std::is_sorted(columns.begin(), columns.end()));
  auto [it, created] = composite_indexes_.try_emplace(columns);
  CompositeIndex& composite = it->second;
  if (created) {
    composite.buckets.reserve(rows_.size());
    for (size_t row = 0; row < rows_.size(); ++row) {
      composite.buckets[ProjectColumns(rows_[row], columns)].push_back(
          static_cast<uint32_t>(row));
    }
  }
  return composite;
}

const Relation::RowIndexList& Relation::Probe(int column,
                                              const Value& key) const {
  EnsureColumnIndex(column);
  const ColumnIndex& ci = column_indexes_[static_cast<size_t>(column)];
  auto it = ci.buckets.find(key);
  return it == ci.buckets.end() ? kEmptyBucket : it->second;
}

const Relation::RowIndexList& Relation::ProbeComposite(
    const std::vector<int>& columns, const std::vector<Value>& keys) const {
  assert(columns.size() == keys.size());
  const CompositeIndex& composite = EnsureCompositeIndex(columns);
  auto bucket = composite.buckets.find(Tuple(keys.data(), keys.size()));
  return bucket == composite.buckets.end() ? kEmptyBucket : bucket->second;
}

size_t Relation::WireSize() const {
  size_t total = 0;
  for (const Tuple& t : rows_) total += t.WireSize();
  return total;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {\n";
  for (const Tuple& t : rows_) {
    out += "  " + t.ToString() + "\n";
  }
  out += "}";
  return out;
}

}  // namespace codb
