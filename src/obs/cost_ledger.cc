#include "obs/cost_ledger.h"

#include "util/string_util.h"

namespace codb {

const char* CostClassName(CostClass cls) {
  switch (cls) {
    case CostClass::kData:
      return "data";
    case CostClass::kControl:
      return "control";
    case CostClass::kAck:
      return "ack";
    case CostClass::kRetransmit:
      return "retx";
    case CostClass::kDiscovery:
      return "discovery";
    case CostClass::kConfig:
      return "config";
    case CostClass::kMembership:
      return "membership";
    case CostClass::kFederation:
      return "federation";
  }
  return "unknown";
}

CostClass ClassifyMessage(MessageType type, bool retransmit) {
  if (retransmit) return CostClass::kRetransmit;
  switch (type) {
    case MessageType::kUpdateRequest:
    case MessageType::kUpdateData:
    case MessageType::kQueryRequest:
    case MessageType::kQueryResult:
      return CostClass::kData;
    case MessageType::kLinkClosed:
    case MessageType::kUpdateComplete:
    case MessageType::kQueryDone:
    case MessageType::kStatsRequest:
    case MessageType::kStatsReport:
      return CostClass::kControl;
    case MessageType::kUpdateAck:
    case MessageType::kDeliveryAck:
      return CostClass::kAck;
    case MessageType::kAdvertisement:
      return CostClass::kDiscovery;
    case MessageType::kConfigSlice:
    case MessageType::kConfigDelta:
    case MessageType::kConfigFetch:
    case MessageType::kConfigAck:
      return CostClass::kConfig;
    case MessageType::kHeartbeat:
    case MessageType::kHeartbeatAck:
      return CostClass::kMembership;
    case MessageType::kFederationReport:
      return CostClass::kFederation;
  }
  return CostClass::kControl;
}

void CostLedger::RecordSend(const Message& message) {
  const size_t cls = static_cast<size_t>(ClassifyMessage(message));
  sent_[cls].messages.fetch_add(1, std::memory_order_relaxed);
  sent_[cls].bytes.fetch_add(message.WireSize(), std::memory_order_relaxed);
}

void CostLedger::RecordRecv(const Message& message) {
  const size_t cls = static_cast<size_t>(ClassifyMessage(message));
  recv_[cls].messages.fetch_add(1, std::memory_order_relaxed);
  recv_[cls].bytes.fetch_add(message.WireSize(),
                             std::memory_order_relaxed);
}

CostLedger::Totals CostLedger::Sent(CostClass cls) const {
  const Cell& cell = sent_[static_cast<size_t>(cls)];
  return {cell.messages.load(std::memory_order_relaxed),
          cell.bytes.load(std::memory_order_relaxed)};
}

CostLedger::Totals CostLedger::Received(CostClass cls) const {
  const Cell& cell = recv_[static_cast<size_t>(cls)];
  return {cell.messages.load(std::memory_order_relaxed),
          cell.bytes.load(std::memory_order_relaxed)};
}

uint64_t CostLedger::TotalSentBytes() const {
  uint64_t total = 0;
  for (const Cell& cell : sent_) {
    total += cell.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

bool CostLedger::empty() const {
  for (size_t c = 0; c < kCostClassCount; ++c) {
    if (sent_[c].messages.load(std::memory_order_relaxed) != 0) return false;
    if (recv_[c].messages.load(std::memory_order_relaxed) != 0) return false;
  }
  return true;
}

MetricsSnapshot CostLedger::Snapshot() const {
  MetricsSnapshot snapshot;
  for (size_t c = 0; c < kCostClassCount; ++c) {
    const char* name = CostClassName(static_cast<CostClass>(c));
    Totals sent = Sent(static_cast<CostClass>(c));
    if (sent.messages != 0) {
      snapshot.SetCounter(StrFormat("cost.sent.%s.msgs", name),
                          sent.messages);
      snapshot.SetCounter(StrFormat("cost.sent.%s.bytes", name), sent.bytes);
    }
    Totals recv = Received(static_cast<CostClass>(c));
    if (recv.messages != 0) {
      snapshot.SetCounter(StrFormat("cost.recv.%s.msgs", name),
                          recv.messages);
      snapshot.SetCounter(StrFormat("cost.recv.%s.bytes", name), recv.bytes);
    }
  }
  return snapshot;
}

std::string RenderCostBreakdown(const MetricsSnapshot& snapshot,
                                const std::string& indent) {
  // Pull the cost.* counters back out of the merged snapshot; a class
  // appears if either direction saw traffic anywhere in the merge.
  struct Row {
    uint64_t sent_msgs = 0, sent_bytes = 0;
    uint64_t recv_msgs = 0, recv_bytes = 0;
  };
  std::array<Row, kCostClassCount> rows{};
  uint64_t total_sent = 0;
  bool any = false;
  auto read = [&snapshot](const std::string& name) -> uint64_t {
    auto it = snapshot.entries.find(name);
    return it == snapshot.entries.end()
               ? 0
               : static_cast<uint64_t>(it->second.value);
  };
  for (size_t c = 0; c < kCostClassCount; ++c) {
    const char* name = CostClassName(static_cast<CostClass>(c));
    Row& row = rows[c];
    row.sent_msgs = read(StrFormat("cost.sent.%s.msgs", name));
    row.sent_bytes = read(StrFormat("cost.sent.%s.bytes", name));
    row.recv_msgs = read(StrFormat("cost.recv.%s.msgs", name));
    row.recv_bytes = read(StrFormat("cost.recv.%s.bytes", name));
    total_sent += row.sent_bytes;
    if (row.sent_msgs != 0 || row.recv_msgs != 0) any = true;
  }
  if (!any) return "";

  std::string out = StrFormat(
      "%s%-12s %10s %14s %10s %14s %7s\n", indent.c_str(), "class",
      "sent-msgs", "sent-bytes", "recv-msgs", "recv-bytes", "%bytes");
  for (size_t c = 0; c < kCostClassCount; ++c) {
    const Row& row = rows[c];
    if (row.sent_msgs == 0 && row.recv_msgs == 0) continue;
    double pct = total_sent == 0
                     ? 0.0
                     : 100.0 * static_cast<double>(row.sent_bytes) /
                           static_cast<double>(total_sent);
    out += StrFormat("%s%-12s %10llu %14llu %10llu %14llu %6.1f%%\n",
                     indent.c_str(),
                     CostClassName(static_cast<CostClass>(c)),
                     static_cast<unsigned long long>(row.sent_msgs),
                     static_cast<unsigned long long>(row.sent_bytes),
                     static_cast<unsigned long long>(row.recv_msgs),
                     static_cast<unsigned long long>(row.recv_bytes), pct);
  }
  out += StrFormat("%s%-12s %10s %14llu\n", indent.c_str(), "total", "",
                   static_cast<unsigned long long>(total_sent));
  return out;
}

}  // namespace codb
