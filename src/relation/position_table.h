// A hash set of uint32_t positions into a sequence its owner keeps: the
// rows of a relation, the keys of an index, the frontiers of a result.
//
// Open addressing with linear probing over a power-of-two slot array. A
// slot holds a position and the 32-bit hash of the element there, never
// the element itself: equality goes through a predicate the caller passes
// with each lookup, which compares the element at a stored position with
// what is looked up. The stored hash turns most mismatches away without
// touching the element, and lets growth re-place every entry in one pass
// over the old slot array without hashing or comparing anything again.
// There is no erase: every set this serves only grows until it is
// cleared. Growth allocates one array; an insert that does not grow
// allocates nothing.

#ifndef CODB_RELATION_POSITION_TABLE_H_
#define CODB_RELATION_POSITION_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace codb {

class PositionTable {
 public:
  // No position: what Find and FindOrInsert return for "absent". Never
  // stored.
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // A 64-bit hash folded to the 32 bits a slot keeps.
  static uint32_t Fold(size_t hash) {
    return static_cast<uint32_t>(hash ^ (hash >> 32));
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // The stored position whose hash is `hash` and for which eq(position)
  // holds, or kNone.
  template <typename Eq>
  uint32_t Find(uint32_t hash, Eq&& eq) const {
    if (size_ == 0) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.position == kNone) return kNone;
      if (slot.hash == hash && eq(slot.position)) return slot.position;
    }
  }

  // Find, and when that finds nothing, stores `position` under `hash` and
  // returns kNone. `eq` is only called on positions already stored.
  template <typename Eq>
  uint32_t FindOrInsert(uint32_t hash, uint32_t position, Eq&& eq) {
    if (size_ + 1 > Limit(slots_.size())) {
      Rehash(std::max(kMinCapacity, slots_.size() * 2));
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.position == kNone) {
        slot = Slot{hash, position};
        ++size_;
        return kNone;
      }
      if (slot.hash == hash && eq(slot.position)) return slot.position;
    }
  }

  // Makes room for `n` positions in all, so inserting up to that many
  // does not grow the table. Capacities are powers of two, so reserving
  // a little more each time still grows geometrically.
  void Reserve(size_t n) {
    if (n <= Limit(slots_.size())) return;
    size_t capacity = std::max(kMinCapacity, slots_.size() * 2);
    while (n > Limit(capacity)) capacity *= 2;
    Rehash(capacity);
  }

  // Empties the table. A large slot array is given back rather than
  // swept: sweeping would cost its size now, and every later lookup in a
  // table that small would skip the same empty slots again.
  void Clear() {
    if (slots_.size() > kKeptSlots) {
      std::vector<Slot>().swap(slots_);
    } else {
      std::fill(slots_.begin(), slots_.end(), Slot{});
    }
    size_ = 0;
  }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t position = kNone;  // kNone: the slot is empty
  };

  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kKeptSlots = 1024;

  // Most entries a table of `capacity` slots holds: three quarters.
  static size_t Limit(size_t capacity) { return capacity - capacity / 4; }

  void Rehash(size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    const size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.position == kNone) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].position != kNone) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // empty, or a power of two
  size_t size_ = 0;
};

}  // namespace codb

#endif  // CODB_RELATION_POSITION_TABLE_H_
