// Wire-cost ledger (DESIGN.md §12): the one count of what the network
// carries, per message type and per subsystem class.
//
// PR 2's metrics count messages per wire type; the scale sweeps (E14)
// showed that the quantities worth optimizing are per-*subsystem* byte
// volumes — the O(n²) config broadcast, discovery's announcement flood,
// retransmission waste — which cut across message types and directions.
// The ledger keeps one cell per (wire type, retransmit flag) and
// direction, entirely in relaxed atomics; the per-type accessors and the
// per-class totals read the same cells, so the two views cannot drift.
//
// Deployment shape: the network core owns one ledger that is always on
// (NetworkBase::stats(), recorded in NetworkBase::Send and Deliver in
// net/network_interface.cc). A node or super-peer may attach its own
// ledger; the core then also records the send side of the endpoint's
// messages into it, and the receive side of deliveries to it.
// CostSnapshot() emits plain `cost.*` counters into a MetricsSnapshot, so
// a node's breakdown rides the kStatsReport trailer unchanged and merges
// network-wide through the super-peer exactly like every other metric.

#ifndef CODB_OBS_COST_LEDGER_H_
#define CODB_OBS_COST_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "net/message.h"
#include "obs/metrics.h"

namespace codb {

// The subsystem a message's bytes are charged to. Retransmission wins
// over the wire type: a resent UPDATE_DATA is reliability waste, not
// goodput, and the upcoming optimization PRs must see it as such.
enum class CostClass : uint8_t {
  kData = 0,      // update/query payload traffic (the goodput)
  kControl,       // flow control: link-closed, completes, stats exchange
  kAck,           // receipts: delivery acks + Dijkstra-Scholten acks
  kRetransmit,    // reliability-layer resends (any wire type)
  kDiscovery,     // advertisement flood
  kConfig,        // super-peer config broadcast (the O(n²) wall)
  kMembership,    // heartbeat beacons + echoes
  kFederation,    // super-peer federation digests
};
inline constexpr size_t kCostClassCount = 8;

// Lowercase metric-name-safe label ("data", "retx", "config", ...).
const char* CostClassName(CostClass cls);

CostClass ClassifyMessage(MessageType type, bool retransmit);
inline CostClass ClassifyMessage(const Message& message) {
  return ClassifyMessage(message.type, message.retransmit);
}

class CostLedger {
 public:
  struct Totals {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  CostLedger() = default;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  // Hot path: relaxed atomics, no lock.
  void RecordSend(const Message& message);
  void RecordRecv(const Message& message);
  // A message lost in flight: its destination left or its pipe closed
  // while it was on the wire.
  void RecordDrop() { dropped_.fetch_add(1, std::memory_order_relaxed); }
  // The faults the injector (net/fault.h) drew for one send. Distinct
  // from RecordDrop: an injected drop never reaches the wire.
  void RecordFaults(bool drop, bool duplicate, bool delay);

  // -- per class ----------------------------------------------------------
  Totals Sent(CostClass cls) const;
  Totals Received(CostClass cls) const;
  uint64_t SentBytes(CostClass cls) const { return Sent(cls).bytes; }

  // -- per wire type, sent side (a resend counts in its own type too) -----
  uint64_t MessagesOfType(MessageType type) const;
  uint64_t BytesOfType(MessageType type) const;
  uint64_t total_messages() const;
  uint64_t total_bytes() const;
  uint64_t dropped_messages() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t injected_drops() const {
    return injected_drops_.load(std::memory_order_relaxed);
  }
  uint64_t injected_dups() const {
    return injected_dups_.load(std::memory_order_relaxed);
  }
  uint64_t injected_delays() const {
    return injected_delays_.load(std::memory_order_relaxed);
  }

  // True when no message was ever sent or received.
  bool empty() const;

  // The transport view: net.messages / net.bytes / net.dropped,
  // net.fault.{drops,dups,delays}, plus net.msgs.<TYPE> and
  // net.bytes.<TYPE> per message type sent.
  MetricsSnapshot Snapshot() const;

  // Multi-line per-type breakdown, rendered from Snapshot() so the human
  // and machine-readable views cannot drift.
  std::string Report() const;

  // The per-class export form: `cost.sent.<class>.bytes`,
  // `cost.sent.<class>.msgs`, `cost.recv.<class>.bytes`,
  // `cost.recv.<class>.msgs` counters, only for classes with traffic — an
  // idle ledger snapshots to nothing, so kStatsReport payloads are
  // byte-identical until a node attaches its ledger.
  MetricsSnapshot CostSnapshot() const;

 private:
  struct Cell {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> bytes{0};
  };
  // One cell per wire type value (slot 0 takes any unknown type) and
  // retransmit flag.
  using Cells = std::array<std::array<Cell, 2>, kMessageTypeLimit>;

  static void Record(Cells& cells, const Message& message);
  static Totals Sum(const Cells& cells, CostClass cls);

  Cells sent_;
  Cells recv_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> injected_drops_{0};
  std::atomic<uint64_t> injected_dups_{0};
  std::atomic<uint64_t> injected_delays_{0};
};

// The network's traffic counts (NetworkBase::stats()) are its ledger.
using TransportStats = CostLedger;

// Renders the `cost.*` entries of a (possibly node-merged) snapshot as a
// per-class table with a percent-of-total column; empty string when the
// snapshot carries no cost entries. The super-peer reports and codb_profile
// both format through here so the views cannot drift.
std::string RenderCostBreakdown(const MetricsSnapshot& snapshot,
                                const std::string& indent = "  ");

}  // namespace codb

#endif  // CODB_OBS_COST_LEDGER_H_
