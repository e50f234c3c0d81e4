// Unit tests for wire serialization: round trips and robustness against
// truncated or corrupt payloads.

#include <gtest/gtest.h>

#include "core/protocol.h"
#include "core/statistics.h"
#include "core/super_peer.h"
#include "membership/heartbeat.h"
#include "relation/wal.h"
#include "relation/wire.h"

namespace codb {
namespace {

TEST(WireTest, PrimitiveRoundTrips) {
  WireWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU16(0xBEEF);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteI64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteString("hello");
  std::vector<uint8_t> bytes = writer.Take();

  WireReader reader(bytes);
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.14159);
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, ValueRoundTripsAllKinds) {
  const Value values[] = {
      Value::Int(-7),
      Value::Double(2.5),
      Value::String("text with spaces"),
      Value::String(""),
      Value::Null(3, 99),
  };
  for (const Value& v : values) {
    WireWriter writer;
    writer.WriteValue(v);
    std::vector<uint8_t> bytes = writer.Take();
    EXPECT_EQ(bytes.size(), v.WireSize());

    WireReader reader(bytes);
    Result<Value> back = reader.ReadValue();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), v);
  }
}

TEST(WireTest, TupleBatchRoundTrip) {
  std::vector<Tuple> tuples = {
      Tuple{Value::Int(1), Value::String("a")},
      Tuple{Value::Null(2, 3), Value::Double(0.5)},
      Tuple{},
  };
  WireWriter writer;
  writer.WriteTuples(tuples);
  std::vector<uint8_t> bytes = writer.Take();

  WireReader reader(bytes);
  Result<std::vector<Tuple>> back = reader.ReadTuples();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), tuples);
}

TEST(WireTest, GoldenBytesAreStable) {
  // Pins the exact wire encoding of every value kind. In-memory
  // representation changes (e.g. string interning) must translate at this
  // boundary: the bytes below are the cross-version and cross-peer
  // contract.
  WireWriter writer;
  writer.WriteTuple(Tuple{Value::Int(7), Value::Double(1.5),
                          Value::String("ab"), Value::Null(3, 9)});
  const std::vector<uint8_t> expected = {
      0x04, 0x00,                                   // arity = 4
      0x00, 0x07, 0, 0, 0, 0, 0, 0, 0,              // int 7, little-endian
      0x01, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F,           // double 1.5
      0x02, 0x02, 0x00, 0x00, 0x00, 'a', 'b',       // string "ab"
      0x03, 0x03, 0, 0, 0, 0x09, 0, 0, 0, 0, 0, 0, 0,  // null #3:9
  };
  EXPECT_EQ(writer.Take(), expected);
}

TEST(WireTest, TruncatedInputReportsParseError) {
  WireWriter writer;
  writer.WriteString("hello");
  std::vector<uint8_t> bytes = writer.Take();
  // Chop off the tail; every prefix must fail cleanly, never crash.
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(keep));
    WireReader reader(prefix);
    Result<std::string> s = reader.ReadString();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kParseError);
  }
}

TEST(WireTest, CountReadRejectsWhatTheBytesCannotHold) {
  // Count 2, then 8 bytes: two 4-byte elements fit, two 5-byte ones not.
  std::vector<uint8_t> bytes = {2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  WireReader fits(bytes);
  Result<uint32_t> count = fits.ReadCount(4);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 2u);
  WireReader overlong(bytes);
  EXPECT_EQ(overlong.ReadCount(5).status().code(), StatusCode::kParseError);
}

TEST(WireTest, InflatedListCountsFailWithoutAllocating) {
  // A 0xFFFFFFFF count in front of a few bytes: every list decoder must
  // reject it before sizing an allocation (CI also runs this binary under
  // a 4 GiB address-space cap, where an unbounded reserve would throw).
  const std::vector<uint8_t> inflated = {0xFF, 0xFF, 0xFF, 0xFF,
                                         1,    2,    3,    4,   5, 6, 7, 8};
  WireReader tuples(inflated);
  EXPECT_FALSE(tuples.ReadTuples().ok());
  WireReader strings(inflated);
  EXPECT_FALSE(strings.ReadStringList().ok());
  WireReader u32s(inflated);
  EXPECT_FALSE(u32s.ReadU32List().ok());
  WireReader head_tuples(inflated);
  EXPECT_FALSE(ReadHeadTuples(head_tuples).ok());
  EXPECT_FALSE(StatisticsModule::DeserializeBundle(inflated).ok());
  EXPECT_FALSE(WriteAheadLog::Deserialize(inflated).ok());
  std::vector<uint8_t> beacon(24, 0);  // incarnation, seq, send time
  beacon.insert(beacon.end(), inflated.begin(), inflated.end());
  EXPECT_FALSE(HeartbeatPayload::Deserialize(beacon).ok());
  WireWriter federation;
  federation.WriteString("super");
  federation.WriteU64(1);  // nodes reporting
  std::vector<uint8_t> federation_bytes = federation.Take();
  federation_bytes.insert(federation_bytes.end(), inflated.begin(),
                          inflated.end());
  EXPECT_FALSE(FederationReportPayload::Deserialize(federation_bytes).ok());
}

TEST(WireTest, CorruptValueTagRejected) {
  std::vector<uint8_t> bytes = {0x77};  // no such type tag
  WireReader reader(bytes);
  Result<Value> v = reader.ReadValue();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(ProtocolTest, UpdateDataPayloadRoundTrip) {
  UpdateDataPayload payload;
  payload.update = {FlowId::Scope::kUpdate, 4, 17};
  payload.rule_id = "r3";
  payload.path = {0, 2, 5};
  payload.tuples = {{"d", Tuple{Value::Int(1), Value::Null(0, 0)}},
                    {"e", Tuple{Value::Int(2), Value::Int(3)}}};

  Result<UpdateDataPayload> back =
      UpdateDataPayload::Deserialize(payload.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().update, payload.update);
  EXPECT_EQ(back.value().rule_id, "r3");
  EXPECT_EQ(back.value().path, payload.path);
  ASSERT_EQ(back.value().tuples.size(), 2u);
  EXPECT_EQ(back.value().tuples[0], payload.tuples[0]);
  EXPECT_EQ(back.value().tuples[1], payload.tuples[1]);
}

TEST(ProtocolTest, AllSmallPayloadsRoundTrip) {
  FlowId update{FlowId::Scope::kUpdate, 1, 2};
  FlowId query{FlowId::Scope::kQuery, 3, 4};

  EXPECT_EQ(UpdateRequestPayload::Deserialize(
                UpdateRequestPayload{update}.Serialize())
                .value()
                .update,
            update);
  // The refresh flag rides the request. The incremental flag rides the
  // data, right after the FlowId: an incremental flow sends no request,
  // so its first data message joins the receiver. Both must survive the
  // wire.
  for (bool refresh : {false, true}) {
    Result<UpdateRequestPayload> mode_back =
        UpdateRequestPayload::Deserialize(
            UpdateRequestPayload{update, refresh}.Serialize());
    ASSERT_TRUE(mode_back.ok());
    EXPECT_EQ(mode_back.value().refresh, refresh);
  }
  for (bool incremental : {false, true}) {
    UpdateDataPayload data;
    data.update = update;
    data.incremental = incremental;
    data.rule_id = "r2";
    const std::vector<uint8_t> bytes = data.Serialize();
    ASSERT_GT(bytes.size(), FlowId::kWireBytes);
    EXPECT_EQ(bytes[FlowId::kWireBytes], incremental ? 1 : 0);
    Result<UpdateDataPayload> data_back = UpdateDataPayload::Deserialize(bytes);
    ASSERT_TRUE(data_back.ok());
    EXPECT_EQ(data_back.value().incremental, incremental);
    EXPECT_EQ(data_back.value().rule_id, "r2");
  }
  LinkClosedPayload closed{update, "r9"};
  Result<LinkClosedPayload> closed_back =
      LinkClosedPayload::Deserialize(closed.Serialize());
  ASSERT_TRUE(closed_back.ok());
  EXPECT_EQ(closed_back.value().rule_id, "r9");

  EXPECT_EQ(AckPayload::Deserialize(AckPayload{query}.Serialize())
                .value()
                .flow,
            query);
  EXPECT_EQ(UpdateCompletePayload::Deserialize(
                UpdateCompletePayload{update}.Serialize())
                .value()
                .update,
            update);
  QueryRequestPayload request{query, "r1", {7, 8}};
  Result<QueryRequestPayload> request_back =
      QueryRequestPayload::Deserialize(request.Serialize());
  ASSERT_TRUE(request_back.ok());
  EXPECT_EQ(request_back.value().label, (std::vector<uint32_t>{7, 8}));
}

TEST(ProtocolTest, FlowIdOrderingAndNames) {
  FlowId a{FlowId::Scope::kUpdate, 1, 1};
  FlowId b{FlowId::Scope::kUpdate, 1, 2};
  FlowId c{FlowId::Scope::kQuery, 1, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // update scope sorts before query scope
  EXPECT_EQ(a.ToString(), "update/1.1");
  EXPECT_EQ(c.ToString(), "query/1.1");
}

TEST(ProtocolTest, MalformedPayloadRejected) {
  std::vector<uint8_t> junk = {1, 2, 3};
  EXPECT_FALSE(UpdateDataPayload::Deserialize(junk).ok());
  EXPECT_FALSE(QueryRequestPayload::Deserialize(junk).ok());
  std::vector<uint8_t> bad_scope = {9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(UpdateRequestPayload::Deserialize(bad_scope).ok());
}

}  // namespace
}  // namespace codb
