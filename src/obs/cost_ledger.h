// Wire-cost ledger (DESIGN.md §12): attributes every byte the network
// carries to the subsystem that caused it.
//
// PR 2's metrics count messages per wire type; the scale sweeps (E14)
// showed that the quantities worth optimizing are per-*subsystem* byte
// volumes — the O(n²) config broadcast, discovery's announcement flood,
// retransmission waste — which cut across message types and directions.
// The ledger classifies each sent/received message into a CostClass and
// accounts bytes + counts per class and per direction, entirely with
// relaxed atomics so an attached ledger stays off the critical path.
//
// Deployment shape: every node owns one ledger inside its statistical
// module; the network core (NetworkBase::Send and Deliver in
// net/network_interface.cc) records the send side into the source's
// ledger and the receive side into the destination's. Snapshot() emits
// plain `cost.*` counters into a MetricsSnapshot, so the per-node
// breakdown rides the existing kStatsReport trailer unchanged and merges
// network-wide through the super-peer exactly like every other metric. A
// network-wide ledger can additionally be installed for benches that
// want totals without a stats collection (NetworkBase::SetGlobalCostLedger).
//
// Off-by-default-cheap: nothing here runs unless a ledger is attached —
// the core guards recording behind one atomic flag load.

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

  // Hot path: per-class cells are relaxed atomics, no lock.
  void RecordSend(const Message& message);
  void RecordRecv(const Message& message);

  Totals Sent(CostClass cls) const;
  Totals Received(CostClass cls) const;
  uint64_t SentBytes(CostClass cls) const { return Sent(cls).bytes; }
  uint64_t ReceivedBytes(CostClass cls) const { return Received(cls).bytes; }
  uint64_t TotalSentBytes() const;

  // True when nothing was ever recorded.
  bool empty() const;

  // The export form: `cost.sent.<class>.bytes`, `cost.sent.<class>.msgs`,
  // `cost.recv.<class>.bytes`, `cost.recv.<class>.msgs` counters, only
  // for classes with traffic — an idle ledger snapshots to nothing, so
  // kStatsReport payloads are byte-identical until profiling is enabled.
  MetricsSnapshot Snapshot() const;

 private:
  struct Cell {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> bytes{0};
  };

  std::array<Cell, kCostClassCount> sent_;
  std::array<Cell, kCostClassCount> recv_;
};

// Renders the `cost.*` entries of a (possibly node-merged) snapshot as a
// per-class table with a percent-of-total column; empty string when the
// snapshot carries no cost entries. The super-peer reports and codb_profile
// both format through here so the views cannot drift.
std::string RenderCostBreakdown(const MetricsSnapshot& snapshot,
                                const std::string& indent = "  ");

}  // namespace codb

#endif  // CODB_OBS_COST_LEDGER_H_
