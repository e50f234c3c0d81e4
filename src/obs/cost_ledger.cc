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

namespace {

size_t SlotOf(MessageType type) {
  const size_t raw = static_cast<size_t>(type);
  return raw < kMessageTypeLimit ? raw : 0;
}

}  // namespace

void CostLedger::Record(Cells& cells, const Message& message) {
  Cell& cell = cells[SlotOf(message.type)][message.retransmit ? 1 : 0];
  cell.messages.fetch_add(1, std::memory_order_relaxed);
  cell.bytes.fetch_add(message.WireSize(), std::memory_order_relaxed);
}

void CostLedger::RecordSend(const Message& message) {
  Record(sent_, message);
}

void CostLedger::RecordRecv(const Message& message) {
  Record(recv_, message);
}

void CostLedger::RecordFaults(bool drop, bool duplicate, bool delay) {
  if (drop) injected_drops_.fetch_add(1, std::memory_order_relaxed);
  if (duplicate) injected_dups_.fetch_add(1, std::memory_order_relaxed);
  if (delay) injected_delays_.fetch_add(1, std::memory_order_relaxed);
}

CostLedger::Totals CostLedger::Sum(const Cells& cells, CostClass cls) {
  Totals totals;
  for (size_t slot = 0; slot < kMessageTypeLimit; ++slot) {
    for (size_t retx = 0; retx < 2; ++retx) {
      if (ClassifyMessage(static_cast<MessageType>(slot), retx != 0) != cls) {
        continue;
      }
      totals.messages +=
          cells[slot][retx].messages.load(std::memory_order_relaxed);
      totals.bytes += cells[slot][retx].bytes.load(std::memory_order_relaxed);
    }
  }
  return totals;
}

CostLedger::Totals CostLedger::Sent(CostClass cls) const {
  return Sum(sent_, cls);
}

CostLedger::Totals CostLedger::Received(CostClass cls) const {
  return Sum(recv_, cls);
}

uint64_t CostLedger::MessagesOfType(MessageType type) const {
  const auto& cells = sent_[SlotOf(type)];
  return cells[0].messages.load(std::memory_order_relaxed) +
         cells[1].messages.load(std::memory_order_relaxed);
}

uint64_t CostLedger::BytesOfType(MessageType type) const {
  const auto& cells = sent_[SlotOf(type)];
  return cells[0].bytes.load(std::memory_order_relaxed) +
         cells[1].bytes.load(std::memory_order_relaxed);
}

uint64_t CostLedger::total_messages() const {
  uint64_t total = 0;
  for (size_t slot = 0; slot < kMessageTypeLimit; ++slot) {
    total += MessagesOfType(static_cast<MessageType>(slot));
  }
  return total;
}

uint64_t CostLedger::total_bytes() const {
  uint64_t total = 0;
  for (size_t slot = 0; slot < kMessageTypeLimit; ++slot) {
    total += BytesOfType(static_cast<MessageType>(slot));
  }
  return total;
}

bool CostLedger::empty() const {
  for (size_t slot = 0; slot < kMessageTypeLimit; ++slot) {
    for (size_t retx = 0; retx < 2; ++retx) {
      if (sent_[slot][retx].messages.load(std::memory_order_relaxed) != 0 ||
          recv_[slot][retx].messages.load(std::memory_order_relaxed) != 0) {
        return false;
      }
    }
  }
  return true;
}

MetricsSnapshot CostLedger::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.SetCounter("net.messages", total_messages());
  snapshot.SetCounter("net.bytes", total_bytes());
  snapshot.SetCounter("net.dropped", dropped_messages());
  snapshot.SetCounter("net.fault.drops", injected_drops());
  snapshot.SetCounter("net.fault.dups", injected_dups());
  snapshot.SetCounter("net.fault.delays", injected_delays());
  for (size_t slot = 0; slot < kMessageTypeLimit; ++slot) {
    const MessageType type = static_cast<MessageType>(slot);
    const uint64_t messages = MessagesOfType(type);
    if (messages == 0) continue;
    snapshot.SetCounter(std::string("net.msgs.") + MessageTypeName(type),
                        messages);
    snapshot.SetCounter(std::string("net.bytes.") + MessageTypeName(type),
                        BytesOfType(type));
  }
  return snapshot;
}

std::string CostLedger::Report() const {
  std::string out = StrFormat(
      "transport: %llu messages, %s total, %llu dropped\n",
      static_cast<unsigned long long>(total_messages()),
      HumanBytes(total_bytes()).c_str(),
      static_cast<unsigned long long>(dropped_messages()));
  out += Snapshot().Render();
  return out;
}

MetricsSnapshot CostLedger::CostSnapshot() const {
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
