#include "relation/wal.h"

#include <cstdio>

#include "relation/wire.h"

namespace codb {

void WriteAheadLog::LogInsert(const std::string& relation,
                              const Tuple& tuple) {
  entries_.push_back({relation, tuple});
}

Status WriteAheadLog::ReplayInto(Database& db) const {
  for (const Entry& entry : entries_) {
    CODB_ASSIGN_OR_RETURN(Relation * relation, db.Get(entry.relation));
    relation->Insert(entry.tuple);
  }
  return Status::Ok();
}

std::vector<uint8_t> WriteAheadLog::Serialize() const {
  WireWriter writer;
  writer.WriteU32(static_cast<uint32_t>(entries_.size()));
  for (const Entry& entry : entries_) {
    writer.WriteString(entry.relation);
    writer.WriteTuple(entry.tuple);
  }
  return writer.Take();
}

Result<WriteAheadLog> WriteAheadLog::Deserialize(
    const std::vector<uint8_t>& bytes) {
  WireReader reader(bytes);
  // Each entry is at least a relation-name length and a tuple arity.
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(4 + 2));
  WriteAheadLog wal;
  wal.entries_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    CODB_ASSIGN_OR_RETURN(entry.relation, reader.ReadString());
    CODB_ASSIGN_OR_RETURN(entry.tuple, reader.ReadTuple());
    wal.entries_.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("journal has trailing bytes");
  }
  return wal;
}

Status WriteAheadLog::SaveToFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot open '" + path + "' for writing");
  }
  std::vector<uint8_t> bytes = Serialize();
  size_t written = bytes.empty()
                       ? 0
                       : std::fwrite(bytes.data(), 1, bytes.size(), file);
  bool flushed = std::fclose(file) == 0;
  if (written != bytes.size() || !flushed) {
    return Status::Unavailable("short write to '" + path + "'");
  }
  return Status::Ok();
}

Result<WriteAheadLog> WriteAheadLog::LoadFromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  std::vector<uint8_t> bytes;
  uint8_t buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + read);
  }
  std::fclose(file);
  return Deserialize(bytes);
}

}  // namespace codb
