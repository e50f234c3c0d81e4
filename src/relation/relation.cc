#include "relation/relation.h"

#include <algorithm>
#include <cassert>

namespace codb {

bool Relation::Insert(const Tuple& tuple, bool imported) {
  assert(tuple.arity() == arity() && "tuple arity does not match schema");
  // One probe resolves presence and claims the slot: the new row's
  // position goes in before the row does, which is safe because the
  // table never compares against the position it is inserting.
  const uint32_t row = static_cast<uint32_t>(rows_.size());
  if (index_.FindOrInsert(
          PositionTable::Fold(tuple.Hash()), row,
          [&](uint32_t other) { return rows_[other] == tuple; }) !=
      PositionTable::kNone) {
    return false;
  }
  rows_.push_back(tuple);
  if (imported) {
    if (imported_.size() <= row) imported_.resize(row + 1, false);
    imported_[row] = true;
  }
  AppendToIndexes(row);
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
  index_.Reserve(n);
  for (KeyIndex& index : column_indexes_) {
    if (!index.columns.empty()) ReserveIndex(index, n);
  }
  for (auto& [columns, index] : composite_indexes_) ReserveIndex(index, n);
}

void Relation::ReserveIndex(KeyIndex& index, size_t n) {
  const size_t rows = index.next.size();
  if (n <= rows) return;
  // At least doubling, so a burst of slightly larger reserves (one per
  // incoming batch) does not copy the array per call.
  if (n > index.next.capacity()) {
    index.next.reserve(std::max(n, 2 * index.next.capacity()));
  }
  // Keys in proportion to the rows so far: a column of distinct values
  // reserves a key per row, one of a few values hardly any.
  if (rows > 0) index.keys.Reserve(index.chains.size() * n / rows);
}

std::vector<Tuple> Relation::Difference(
    const std::vector<Tuple>& batch) const {
  std::vector<Tuple> out;
  for (const Tuple& t : batch) {
    if (!Contains(t)) out.push_back(t);
  }
  return out;
}

void Relation::AppendToIndexes(uint32_t row) const {
  for (KeyIndex& index : column_indexes_) {
    if (!index.columns.empty()) AppendToIndex(index, row);
  }
  for (auto& [columns, index] : composite_indexes_) {
    AppendToIndex(index, row);
  }
}

void Relation::AppendToIndex(KeyIndex& index, uint32_t row) const {
  const Tuple& tuple = rows_[row];
  const std::vector<int>& columns = index.columns;
  const uint32_t hash = PositionTable::Fold(Tuple::HashOf(
      columns.size(),
      [&](size_t i) -> const Value& { return tuple.at(columns[i]); }));
  const uint32_t key = index.keys.FindOrInsert(
      hash, static_cast<uint32_t>(index.chains.size()), [&](uint32_t id) {
        const Tuple& first = rows_[index.chains[id].first];
        for (int c : columns) {
          if (!(first.at(c) == tuple.at(c))) return false;
        }
        return true;
      });
  index.next.push_back(kNoRow);
  if (key == PositionTable::kNone) {
    index.chains.push_back(Chain{row, row, 1});
    return;
  }
  Chain& chain = index.chains[key];
  index.next[chain.last] = row;
  chain.last = row;
  ++chain.count;
}

void Relation::BuildIndex(KeyIndex& index,
                          const std::vector<int>& columns) const {
  index.columns = columns;
  index.next.reserve(rows_.size());
  for (size_t row = 0; row < rows_.size(); ++row) {
    AppendToIndex(index, static_cast<uint32_t>(row));
  }
}

Relation::Bucket Relation::Lookup(const KeyIndex& index,
                                  const Value* keys) const {
  const std::vector<int>& columns = index.columns;
  const uint32_t key = index.keys.Find(
      PositionTable::Fold(Tuple::HashOf(keys, columns.size())),
      [&](uint32_t id) {
        const Tuple& first = rows_[index.chains[id].first];
        for (size_t i = 0; i < columns.size(); ++i) {
          if (!(first.at(columns[i]) == keys[i])) return false;
        }
        return true;
      });
  return key == PositionTable::kNone ? Bucket() : Bucket(&index, key);
}

Relation::Bucket Relation::Probe(int column, const Value& key) const {
  assert(column >= 0 && column < arity());
  if (column_indexes_.empty()) {
    column_indexes_.resize(static_cast<size_t>(arity()));
  }
  KeyIndex& index = column_indexes_[static_cast<size_t>(column)];
  if (index.columns.empty()) BuildIndex(index, {column});
  return Lookup(index, &key);
}

Relation::Bucket Relation::ProbeComposite(
    const std::vector<int>& columns, const std::vector<Value>& keys) const {
  assert(!columns.empty());
  assert(columns.size() == keys.size());
  assert(std::is_sorted(columns.begin(), columns.end()));
  auto [it, created] = composite_indexes_.try_emplace(columns);
  if (created) BuildIndex(it->second, columns);
  return Lookup(it->second, keys.data());
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
