// Binary serialization for message payloads.
//
// Little-endian fixed-width integers, length-prefixed strings, and typed
// values/tuples. Reads are bounds-checked and report kParseError instead of
// crashing on truncated or corrupt input, so a malformed message cannot
// take a peer down.

#ifndef CODB_RELATION_WIRE_H_
#define CODB_RELATION_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/tuple.h"
#include "relation/value.h"
#include "util/status.h"

namespace codb {

class WireWriter {
 public:
  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteValue(const Value& v);
  void WriteTuple(const Tuple& t);
  void WriteTuples(const std::vector<Tuple>& tuples);
  void WriteStringList(const std::vector<std::string>& strings);
  void WriteU32List(const std::vector<uint32_t>& values);

  std::vector<uint8_t> Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  Result<Tuple> ReadTuple();
  Result<std::vector<Tuple>> ReadTuples();
  Result<std::vector<std::string>> ReadStringList();
  Result<std::vector<uint32_t>> ReadU32List();

  // Reads a u32 element count and rejects any count the remaining bytes
  // cannot hold at `min_element_bytes` (> 0) each, so a corrupt length
  // prefix fails the parse instead of sizing an allocation.
  Result<uint32_t> ReadCount(size_t min_element_bytes);

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  // Bounds check, inline so the per-field happy path is a compare; the
  // error message is built out of line.
  Status Need(size_t n) {
    if (size_ - pos_ >= n) return Status::Ok();
    return Truncated(n);
  }
  Status Truncated(size_t n) const;

  // Unchecked little-endian loads for hot paths that have already passed a
  // Need() covering the bytes. The shift form is endian-independent; the
  // compiler fuses it into a single load on little-endian targets.
  uint8_t TakeU8() { return data_[pos_++]; }
  uint16_t TakeU16() {
    uint16_t v = static_cast<uint16_t>(
        static_cast<uint16_t>(data_[pos_]) |
        static_cast<uint16_t>(data_[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
  }
  uint32_t TakeU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t TakeU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace codb

#endif  // CODB_RELATION_WIRE_H_
