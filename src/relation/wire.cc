#include "relation/wire.h"

#include <cstring>

namespace codb {

void WireWriter::WriteU8(uint8_t v) { buffer_.push_back(v); }

void WireWriter::WriteU16(uint16_t v) {
  buffer_.push_back(static_cast<uint8_t>(v));
  buffer_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::WriteU32(uint32_t v) {
  // Staged through a local array so the vector grows (and bounds-checks)
  // once per value instead of once per byte.
  uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  buffer_.insert(buffer_.end(), bytes, bytes + 4);
}

void WireWriter::WriteU64(uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  buffer_.insert(buffer_.end(), bytes, bytes + 8);
}

void WireWriter::WriteI64(int64_t v) {
  WriteU64(static_cast<uint64_t>(v));
}

void WireWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void WireWriter::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void WireWriter::WriteValue(const Value& v) {
  WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kInt:
      WriteI64(v.AsInt());
      break;
    case ValueType::kDouble:
      WriteDouble(v.AsDouble());
      break;
    case ValueType::kString:
      WriteString(v.AsString());
      break;
    case ValueType::kNull:
      WriteU32(v.AsNull().peer);
      WriteU64(v.AsNull().counter);
      break;
  }
}

void WireWriter::WriteTuple(const Tuple& t) {
  WriteU16(static_cast<uint16_t>(t.arity()));
  for (const Value& v : t) WriteValue(v);
}

void WireWriter::WriteTuples(const std::vector<Tuple>& tuples) {
  WriteU32(static_cast<uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) WriteTuple(t);
}

void WireWriter::WriteStringList(const std::vector<std::string>& strings) {
  WriteU32(static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) WriteString(s);
}

void WireWriter::WriteU32List(const std::vector<uint32_t>& values) {
  WriteU32(static_cast<uint32_t>(values.size()));
  for (uint32_t v : values) WriteU32(v);
}

Status WireReader::Truncated(size_t n) const {
  return Status::ParseError("wire: truncated input (need " +
                            std::to_string(n) + " bytes, have " +
                            std::to_string(size_ - pos_) + ")");
}

Result<uint8_t> WireReader::ReadU8() {
  CODB_RETURN_IF_ERROR(Need(1));
  return TakeU8();
}

Result<uint16_t> WireReader::ReadU16() {
  CODB_RETURN_IF_ERROR(Need(2));
  return TakeU16();
}

Result<uint32_t> WireReader::ReadU32() {
  CODB_RETURN_IF_ERROR(Need(4));
  return TakeU32();
}

Result<uint64_t> WireReader::ReadU64() {
  CODB_RETURN_IF_ERROR(Need(8));
  return TakeU64();
}

Result<int64_t> WireReader::ReadI64() {
  CODB_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  return static_cast<int64_t>(bits);
}

Result<double> WireReader::ReadDouble() {
  CODB_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> WireReader::ReadString() {
  CODB_RETURN_IF_ERROR(Need(4));
  uint32_t length = TakeU32();
  CODB_RETURN_IF_ERROR(Need(length));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return s;
}

Result<Value> WireReader::ReadValue() {
  // One bounds check per payload instead of one per nested fixed-width
  // read; this is the deserialization hot loop for update data messages.
  CODB_RETURN_IF_ERROR(Need(1));
  uint8_t tag = TakeU8();
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kInt: {
      CODB_RETURN_IF_ERROR(Need(8));
      return Value::Int(static_cast<int64_t>(TakeU64()));
    }
    case ValueType::kDouble: {
      CODB_RETURN_IF_ERROR(Need(8));
      uint64_t bits = TakeU64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case ValueType::kString: {
      // Interned straight from the wire buffer — no std::string detour.
      CODB_RETURN_IF_ERROR(Need(4));
      uint32_t length = TakeU32();
      CODB_RETURN_IF_ERROR(Need(length));
      std::string_view view(reinterpret_cast<const char*>(data_ + pos_),
                            length);
      pos_ += length;
      return Value::String(view);
    }
    case ValueType::kNull: {
      CODB_RETURN_IF_ERROR(Need(12));
      uint32_t peer = TakeU32();
      uint64_t counter = TakeU64();
      return Value::Null(peer, counter);
    }
  }
  return Status::ParseError("wire: unknown value tag " + std::to_string(tag));
}

Result<Tuple> WireReader::ReadTuple() {
  CODB_RETURN_IF_ERROR(Need(2));
  uint16_t arity = TakeU16();
  if (arity <= Tuple::kInlineCapacity) {
    // Common case: decode straight into a stack buffer so the tuple is
    // built without touching the heap.
    Value values[Tuple::kInlineCapacity];
    for (uint16_t i = 0; i < arity; ++i) {
      CODB_ASSIGN_OR_RETURN(values[i], ReadValue());
    }
    return Tuple(values, arity);
  }
  std::vector<Value> values;
  values.reserve(arity);
  for (uint16_t i = 0; i < arity; ++i) {
    CODB_ASSIGN_OR_RETURN(Value v, ReadValue());
    values.push_back(std::move(v));
  }
  return Tuple(values);
}

Result<uint32_t> WireReader::ReadCount(size_t min_element_bytes) {
  CODB_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
  if (count > remaining() / min_element_bytes) {
    return Status::ParseError("wire: count " + std::to_string(count) +
                              " exceeds the " + std::to_string(remaining()) +
                              " bytes left");
  }
  return count;
}

Result<std::vector<Tuple>> WireReader::ReadTuples() {
  CODB_ASSIGN_OR_RETURN(uint32_t count, ReadCount(/*arity*/ 2));
  std::vector<Tuple> tuples;
  tuples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(Tuple t, ReadTuple());
    tuples.push_back(std::move(t));
  }
  return tuples;
}

Result<std::vector<std::string>> WireReader::ReadStringList() {
  CODB_ASSIGN_OR_RETURN(uint32_t count, ReadCount(/*length*/ 4));
  std::vector<std::string> strings;
  strings.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(std::string s, ReadString());
    strings.push_back(std::move(s));
  }
  return strings;
}

Result<std::vector<uint32_t>> WireReader::ReadU32List() {
  CODB_ASSIGN_OR_RETURN(uint32_t count, ReadCount(4));
  std::vector<uint32_t> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
    values.push_back(v);
  }
  return values;
}

}  // namespace codb
