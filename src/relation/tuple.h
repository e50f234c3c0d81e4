// Fixed-arity tuples of values.
//
// Small-buffer representation: arities up to kInlineCapacity (the common
// case — coordination-rule heads and bodies are narrow) live inline, so
// copying a tuple between the wire buffer, row storage, dedup sets, and
// provenance never allocates. Wider tuples fall back to a heap array.

#ifndef CODB_RELATION_TUPLE_H_
#define CODB_RELATION_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "relation/value.h"

namespace codb {

class Tuple {
 public:
  static constexpr uint32_t kInlineCapacity = 4;

  Tuple() = default;
  Tuple(const Value* values, size_t count) { Assign(values, count); }
  explicit Tuple(const std::vector<Value>& values)
      : Tuple(values.data(), values.size()) {}
  Tuple(std::initializer_list<Value> values)
      : Tuple(values.begin(), values.size()) {}

  Tuple(const Tuple& other) { Assign(other.data(), other.size_); }
  Tuple(Tuple&& other) noexcept
      : heap_(other.heap_), size_(other.size_) {
    if (heap_ == nullptr) {
      std::copy(other.inline_, other.inline_ + size_, inline_);
    }
    other.heap_ = nullptr;
    other.size_ = 0;
  }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      delete[] heap_;
      heap_ = nullptr;
      Assign(other.data(), other.size_);
    }
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      heap_ = other.heap_;
      size_ = other.size_;
      if (heap_ == nullptr) {
        std::copy(other.inline_, other.inline_ + size_, inline_);
      }
      other.heap_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~Tuple() { delete[] heap_; }

  int arity() const { return static_cast<int>(size_); }
  const Value& at(int i) const { return data()[i]; }

  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  // True if any component is a marked null.
  bool HasNull() const;

  // Renames every marked null to #0:k where k is the order of first
  // occurrence inside this tuple. Two tuples whose nulls do not occur
  // elsewhere are isomorphic iff their canonical forms are equal.
  Tuple CanonicalizeNulls() const;

  // Inline: keys every dedup set and index on the update hot path.
  size_t Hash() const { return HashOf(data(), size_); }

  // The Hash() of the tuple holding values[0, count), computed without
  // building it (a frontier still in scratch, a probe key).
  static size_t HashOf(const Value* values, size_t count) {
    return HashOf(count, [values](size_t i) -> const Value& {
      return values[i];
    });
  }

  // The Hash() of the tuple whose i-th value is at(i), for i < count: the
  // hash of a projection, computed without building it.
  template <typename At>
  static size_t HashOf(size_t count, At&& at) {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < count; ++i) {
      h = h * 31 + at(i).Hash();
    }
    return h;
  }

  // "(1, 'a', #3:7)".
  std::string ToString() const;

  // Serialized payload size on the wire.
  size_t WireSize() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  const Value* data() const {
    return heap_ == nullptr ? inline_ : heap_;
  }
  void Assign(const Value* values, size_t count) {
    size_ = static_cast<uint32_t>(count);
    if (count <= kInlineCapacity) {
      std::copy(values, values + count, inline_);
    } else {
      heap_ = new Value[count];
      std::copy(values, values + count, heap_);
    }
  }

  Value* heap_ = nullptr;  // null when the tuple fits inline
  uint32_t size_ = 0;
  Value inline_[kInlineCapacity];
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace codb

#endif  // CODB_RELATION_TUPLE_H_
