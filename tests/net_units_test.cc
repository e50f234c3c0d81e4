// Remaining small-unit coverage: pipe cost model, message envelopes,
// transport-stats reporting, logging levels, and printer edge cases.

#include <gtest/gtest.h>

#include "net/message.h"
#include "net/pipe.h"
#include "obs/cost_ledger.h"
#include "relation/printer.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace codb {
namespace {

TEST(PipeTest, ArrivalIsLatencyPlusTransmission) {
  LinkProfile profile;
  profile.latency_us = 100;
  profile.bandwidth_bpus = 10.0;  // 10 bytes/us
  Pipe pipe(PeerId(0), PeerId(1), profile);

  // 500 bytes at 10 B/us = 50us transmit + 100us latency.
  EXPECT_EQ(pipe.ScheduleArrival(/*now=*/0, /*bytes=*/500), 150);
  // Next message queues behind the first transmission (FIFO link).
  EXPECT_EQ(pipe.ScheduleArrival(/*now=*/0, /*bytes=*/500), 200);
  // After the link drains, a later send starts fresh.
  EXPECT_EQ(pipe.ScheduleArrival(/*now=*/10'000, /*bytes=*/100), 10'110);
}

TEST(PipeTest, ZeroBandwidthMeansNoTransmissionDelay) {
  LinkProfile profile;
  profile.latency_us = 42;
  profile.bandwidth_bpus = 0;
  Pipe pipe(PeerId(0), PeerId(1), profile);
  EXPECT_EQ(pipe.ScheduleArrival(0, 1'000'000), 42);
  EXPECT_EQ(pipe.ScheduleArrival(5, 1), 47);
}

TEST(PipeTest, LifecycleAndToString) {
  Pipe pipe(PeerId(3), PeerId(4), LinkProfile::Lan());
  EXPECT_TRUE(pipe.open());
  EXPECT_EQ(pipe.from(), PeerId(3));
  EXPECT_EQ(pipe.to(), PeerId(4));
  pipe.Close();
  EXPECT_FALSE(pipe.open());
  EXPECT_NE(pipe.ToString().find("closed"), std::string::npos);
}

TEST(MessageTest, WireSizeIsHeaderPlusPayload) {
  Message m;
  EXPECT_EQ(m.WireSize(), Message::kHeaderBytes);
  m.payload.assign(100, 0);
  EXPECT_EQ(m.WireSize(), Message::kHeaderBytes + 100u);
}

TEST(MessageTest, EveryTypeHasAName) {
  for (uint16_t raw : {1, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}) {
    EXPECT_STRNE(MessageTypeName(static_cast<MessageType>(raw)),
                 "UNKNOWN");
  }
  // 10 was the retired full-text config broadcast.
  EXPECT_STREQ(MessageTypeName(static_cast<MessageType>(10)), "UNKNOWN");
  EXPECT_STREQ(MessageTypeName(static_cast<MessageType>(999)), "UNKNOWN");
}

TEST(TransportStatsTest, ReportBreaksDownByType) {
  TransportStats stats;
  Message data;
  data.type = MessageType::kUpdateData;
  data.payload.assign(88, 0);
  stats.RecordSend(data);
  stats.RecordSend(data);
  Message ack;
  ack.type = MessageType::kUpdateAck;
  stats.RecordSend(ack);
  stats.RecordDrop();
  // A resend counts in its own type and in the retransmit class.
  Message resend = data;
  resend.retransmit = true;
  stats.RecordSend(resend);

  EXPECT_EQ(stats.total_messages(), 4u);
  EXPECT_EQ(stats.total_bytes(),
            3u * (88u + Message::kHeaderBytes) + Message::kHeaderBytes);
  EXPECT_EQ(stats.dropped_messages(), 1u);
  EXPECT_EQ(stats.MessagesOfType(MessageType::kUpdateData), 3u);
  EXPECT_EQ(stats.BytesOfType(MessageType::kUpdateData),
            3u * (88u + Message::kHeaderBytes));
  EXPECT_EQ(stats.MessagesOfType(MessageType::kQueryResult), 0u);
  EXPECT_EQ(stats.Sent(CostClass::kData).messages, 2u);
  EXPECT_EQ(stats.Sent(CostClass::kRetransmit).messages, 1u);
  EXPECT_EQ(stats.Sent(CostClass::kRetransmit).bytes,
            88u + Message::kHeaderBytes);
  EXPECT_EQ(stats.Sent(CostClass::kAck).messages, 1u);

  std::string report = stats.Report();
  EXPECT_NE(report.find("UPDATE_DATA"), std::string::npos);
  EXPECT_NE(report.find("dropped"), std::string::npos);
}

TEST(LoggingTest, LevelsGateOutput) {
  LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kNone);
  // Nothing should be evaluated below the level; the side effect proves
  // the stream expression is skipped entirely.
  int evaluations = 0;
  auto touch = [&] {
    ++evaluations;
    return "x";
  };
  CODB_LOG(kDebug) << touch();
  CODB_LOG(kError) << touch();
  EXPECT_EQ(evaluations, 0);

  SetLogLevel(LogLevel::kError);
  CODB_LOG(kWarning) << touch();
  EXPECT_EQ(evaluations, 0);
  CODB_LOG(kError) << touch();  // evaluated (and printed to stderr)
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(previous);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  // Burn a little CPU deterministically.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<uint64_t>(i);
  }
  EXPECT_GE(watch.ElapsedMicros(), 0);
  int64_t first = watch.ElapsedMicros();
  watch.Restart();
  EXPECT_LE(watch.ElapsedMicros(), first + 1000000);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

TEST(PrinterTest, EmptyTableStillRendersHeader) {
  std::string table = FormatTable({"a", "bb"}, {});
  EXPECT_NE(table.find("| a | bb |"), std::string::npos);
}

TEST(PrinterTest, WideValuesStretchColumns) {
  std::vector<Tuple> rows = {
      Tuple{Value::String("very-long-content"), Value::Int(1)}};
  std::string table = FormatTable({"x", "y"}, rows);
  EXPECT_NE(table.find("'very-long-content'"), std::string::npos);
  // Header column padded to the row width.
  EXPECT_NE(table.find("| x                   | y |"), std::string::npos);
}

}  // namespace
}  // namespace codb
