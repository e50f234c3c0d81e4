// Append-only row storage of a Relation.
//
// Rows live in segments that double in size and never move: segment k
// holds 16 * 2^k rows, starting at row 16 * (2^k - 1), so row r sits in
// the segment named by the top bit of r + 16, at the offset its lower bits
// give. Growth copies nothing. A std::vector moves every row into a buffer
// twice the size when it fills, and the insert that crosses 2^15 or 2^16
// rows then stalls for milliseconds (most of it faulting in the new
// buffer's pages), a cost that depends on how busy the host's memory is.
// Here an insert at most allocates the next segment, whose pages are
// touched one row at a time as rows arrive. A reference to a row stays
// valid until the store is cleared or destroyed.

#ifndef CODB_RELATION_ROW_STORE_H_
#define CODB_RELATION_ROW_STORE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>

#include "relation/tuple.h"

namespace codb {

class RowStore {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    const_iterator() = default;
    const_iterator(const RowStore* store, size_t row)
        : store_(store), row_(row) {}

    reference operator*() const { return (*store_)[row_]; }
    pointer operator->() const { return &(*store_)[row_]; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return row_ == other.row_;
    }

   private:
    const RowStore* store_ = nullptr;
    size_t row_ = 0;
  };
  using iterator = const_iterator;

  RowStore() = default;
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;
  ~RowStore() { Clear(); }

  // Destroys every row and gives back every segment.
  void Clear() {
    for (size_t segment = 0;
         segment < kSegments && segments_[segment] != nullptr; ++segment) {
      const size_t begin = SegmentBegin(segment);
      const size_t capacity = SegmentEnd(segment) - begin;
      const size_t live =
          size_ > begin ? std::min(size_ - begin, capacity) : 0;
      std::destroy_n(segments_[segment], live);
      std::allocator<Tuple>().deallocate(segments_[segment], capacity);
      segments_[segment] = nullptr;
    }
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Tuple& operator[](size_t row) const {
    assert(row < size_);
    const size_t biased = row + kFirstRows;
    const int top = std::bit_width(biased) - 1;
    return segments_[static_cast<size_t>(top - kFirstBits)]
                    [biased - (size_t{1} << top)];
  }
  const Tuple& back() const { return (*this)[size_ - 1]; }

  void push_back(const Tuple& tuple) {
    const size_t segment = SegmentOf(size_);
    assert(segment < kSegments);
    const size_t begin = SegmentBegin(segment);
    if (segments_[segment] == nullptr) {
      segments_[segment] =
          std::allocator<Tuple>().allocate(SegmentEnd(segment) - begin);
    }
    std::construct_at(segments_[segment] + (size_ - begin), tuple);
    ++size_;
  }

  // Calls fn(tuple) for rows [0, end) in order, a segment at a time.
  template <typename Fn>
  void ForEach(size_t end, Fn&& fn) const {
    assert(end <= size_);
    size_t row = 0;
    for (size_t segment = 0; row < end; ++segment) {
      const Tuple* data = segments_[segment];
      const size_t begin = SegmentBegin(segment);
      const size_t stop = std::min(end, SegmentEnd(segment));
      for (; row < stop; ++row) fn(data[row - begin]);
    }
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr int kFirstBits = 4;
  static constexpr size_t kFirstRows = size_t{1} << kFirstBits;
  // Enough for every uint32_t row position: the last one, 2^32 - 1, lies
  // in segment 28.
  static constexpr size_t kSegments = 32 - kFirstBits + 1;

  static size_t SegmentOf(size_t row) {
    return static_cast<size_t>(std::bit_width(row + kFirstRows)) - 1 -
           kFirstBits;
  }
  static size_t SegmentBegin(size_t segment) {
    return (kFirstRows << segment) - kFirstRows;
  }
  static size_t SegmentEnd(size_t segment) {
    return (kFirstRows << (segment + 1)) - kFirstRows;
  }

  std::array<Tuple*, kSegments> segments_{};
  size_t size_ = 0;
};

}  // namespace codb

#endif  // CODB_RELATION_ROW_STORE_H_
