#include "core/protocol.h"

#include "relation/wire.h"
#include "util/string_util.h"

namespace codb {

namespace {

void WriteFlowId(WireWriter& writer, const FlowId& id) {
  writer.WriteU8(static_cast<uint8_t>(id.scope));
  writer.WriteU32(id.origin);
  writer.WriteU64(id.seq);
}

Result<FlowId> ReadFlowId(WireReader& reader) {
  FlowId id;
  CODB_ASSIGN_OR_RETURN(uint8_t scope, reader.ReadU8());
  if (scope > 1) {
    return Status::ParseError("bad flow scope " + std::to_string(scope));
  }
  id.scope = static_cast<FlowId::Scope>(scope);
  CODB_ASSIGN_OR_RETURN(id.origin, reader.ReadU32());
  CODB_ASSIGN_OR_RETURN(id.seq, reader.ReadU64());
  return id;
}

}  // namespace

std::string FlowId::ToString() const {
  return StrFormat("%s/%u.%llu",
                   scope == Scope::kUpdate ? "update" : "query", origin,
                   static_cast<unsigned long long>(seq));
}

void WriteHeadTuples(WireWriter& writer,
                     const std::vector<HeadTuple>& tuples) {
  writer.WriteU32(static_cast<uint32_t>(tuples.size()));
  for (const HeadTuple& ht : tuples) {
    writer.WriteString(ht.relation);
    writer.WriteTuple(ht.tuple);
  }
}

Result<std::vector<HeadTuple>> ReadHeadTuples(WireReader& reader) {
  // Each element is at least a relation-name length and a tuple arity.
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(4 + 2));
  std::vector<HeadTuple> tuples;
  tuples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HeadTuple ht;
    CODB_ASSIGN_OR_RETURN(ht.relation, reader.ReadString());
    CODB_ASSIGN_OR_RETURN(ht.tuple, reader.ReadTuple());
    tuples.push_back(std::move(ht));
  }
  return tuples;
}

Result<FlowId> PeekFlowId(const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  return ReadFlowId(reader);
}

Message MakeMessage(PeerId src, PeerId dst, MessageType type,
                    std::vector<uint8_t> payload) {
  Message message;
  message.src = src;
  message.dst = dst;
  message.type = type;
  message.payload = std::move(payload);
  return message;
}

// -- UpdateRequestPayload -----------------------------------------------------

std::vector<uint8_t> UpdateRequestPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  writer.WriteU8(refresh ? 1 : 0);
  return writer.Take();
}

Result<UpdateRequestPayload> UpdateRequestPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  UpdateRequestPayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(uint8_t refresh, reader.ReadU8());
  out.refresh = refresh != 0;
  return out;
}

// -- UpdateDataPayload --------------------------------------------------------

std::vector<uint8_t> UpdateDataPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  writer.WriteU8(incremental ? 1 : 0);
  writer.WriteString(rule_id);
  writer.WriteU32List(path);
  WriteHeadTuples(writer, tuples);
  return writer.Take();
}

Result<UpdateDataPayload> UpdateDataPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  UpdateDataPayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(uint8_t incremental, reader.ReadU8());
  out.incremental = incremental != 0;
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.path, reader.ReadU32List());
  CODB_ASSIGN_OR_RETURN(out.tuples, ReadHeadTuples(reader));
  return out;
}

// -- LinkClosedPayload --------------------------------------------------------

std::vector<uint8_t> LinkClosedPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  writer.WriteString(rule_id);
  return writer.Take();
}

Result<LinkClosedPayload> LinkClosedPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  LinkClosedPayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  return out;
}

// -- AckPayload ---------------------------------------------------------------

std::vector<uint8_t> AckPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, flow);
  return writer.Take();
}

Result<AckPayload> AckPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  AckPayload out;
  CODB_ASSIGN_OR_RETURN(out.flow, ReadFlowId(reader));
  return out;
}

// -- DeliveryAckPayload -------------------------------------------------------

std::vector<uint8_t> DeliveryAckPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, flow);
  writer.WriteU32(acked_seq);
  return writer.Take();
}

Result<DeliveryAckPayload> DeliveryAckPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  DeliveryAckPayload out;
  CODB_ASSIGN_OR_RETURN(out.flow, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.acked_seq, reader.ReadU32());
  return out;
}

// -- UpdateCompletePayload ----------------------------------------------------

std::vector<uint8_t> UpdateCompletePayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  return writer.Take();
}

Result<UpdateCompletePayload> UpdateCompletePayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  UpdateCompletePayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  return out;
}

// -- QueryRequestPayload ------------------------------------------------------

std::vector<uint8_t> QueryRequestPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, query);
  writer.WriteString(rule_id);
  writer.WriteU32List(label);
  return writer.Take();
}

Result<QueryRequestPayload> QueryRequestPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  QueryRequestPayload out;
  CODB_ASSIGN_OR_RETURN(out.query, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.label, reader.ReadU32List());
  return out;
}

// -- QueryResultPayload -------------------------------------------------------

std::vector<uint8_t> QueryResultPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, query);
  writer.WriteString(rule_id);
  WriteHeadTuples(writer, tuples);
  return writer.Take();
}

Result<QueryResultPayload> QueryResultPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  QueryResultPayload out;
  CODB_ASSIGN_OR_RETURN(out.query, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.tuples, ReadHeadTuples(reader));
  return out;
}

// -- QueryDonePayload ---------------------------------------------------------

std::vector<uint8_t> QueryDonePayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, query);
  return writer.Take();
}

Result<QueryDonePayload> QueryDonePayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  QueryDonePayload out;
  CODB_ASSIGN_OR_RETURN(out.query, ReadFlowId(reader));
  return out;
}

// -- StatsRequestPayload ------------------------------------------------------

std::vector<uint8_t> StatsRequestPayload::Serialize() const {
  WireWriter writer;
  writer.WriteU64(request_id);
  return writer.Take();
}

Result<StatsRequestPayload> StatsRequestPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  StatsRequestPayload out;
  CODB_ASSIGN_OR_RETURN(out.request_id, reader.ReadU64());
  return out;
}

}  // namespace codb
