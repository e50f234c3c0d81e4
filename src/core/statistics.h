// The per-node statistical module (paper, section 4).
//
// "This module accumulates various information about global updates such
// as: total execution time of an update, number of query result messages
// received per coordination rule and the volume of the data in each
// message, longest update propagation path, and so on."
//
// Each node accumulates an UpdateReport per global update; a super-peer
// can collect every node's reports at any time and aggregate them into the
// final statistical report (core/super_peer.h). Times come in two axes:
// virtual microseconds (network cost, from the event simulator) and wall
// microseconds (real compute spent in this node's handlers).

#ifndef CODB_CORE_STATISTICS_H_
#define CODB_CORE_STATISTICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "obs/cost_ledger.h"
#include "obs/metrics.h"
#include "storage/durability_stats.h"
#include "util/status.h"

namespace codb {

// Traffic observed on one coordination rule at this node.
struct RuleTrafficStats {
  uint64_t messages = 0;
  uint64_t tuples = 0;
  uint64_t bytes = 0;
};

// Wire form of a per-rule traffic map (update reports and the
// super-peers' aggregates).
void WriteRuleTraffic(WireWriter& writer,
                      const std::map<std::string, RuleTrafficStats>& stats);
Result<std::map<std::string, RuleTrafficStats>> ReadRuleTraffic(
    WireReader& reader);

struct UpdateReport {
  FlowId update;

  int64_t start_virtual_us = -1;     // node joined the update
  int64_t closed_virtual_us = -1;    // all outgoing links closed
  int64_t complete_virtual_us = -1;  // global completion observed
  double wall_micros = 0;            // compute spent in handlers

  uint64_t tuples_added = 0;
  uint64_t data_messages_received = 0;
  uint64_t data_bytes_received = 0;
  uint64_t data_messages_sent = 0;
  uint64_t data_bytes_sent = 0;

  // Nodes on the longest update-propagation path observed at this node
  // (the path label of a received data message, plus this node).
  uint32_t longest_path_nodes = 0;

  // Flow-deadline expiry: the root gave up waiting and completed the flow
  // with partial coverage (core/reliability.h).
  bool aborted = false;

  // Per outgoing link: query-result messages received through it.
  std::map<std::string, RuleTrafficStats> received_per_rule;
  // Per incoming link: data shipped through it.
  std::map<std::string, RuleTrafficStats> sent_per_rule;

  // "which acquaintances have been queried and to which nodes query
  // results have been sent" (peer ids).
  std::set<uint32_t> acquaintances_queried;
  std::set<uint32_t> result_destinations;

  void SerializeTo(WireWriter& writer) const;
  static Result<UpdateReport> DeserializeFrom(WireReader& reader);

  // The per-update "global update processing report" shown to the user.
  std::string Render() const;
};

// Everything a kStatsReport payload carries: the per-update reports and
// the node's metrics snapshot — its registry, its cost ledger's `cost.*`
// entries and its durability counters' `storage.*` entries.
struct StatsBundle {
  std::vector<UpdateReport> reports;
  MetricsSnapshot metrics;
};

// Thread-safety: the report *map* is guarded by an internal mutex (a
// flow deadline inserts its report from the network's timer thread,
// outside Node::mutex_). The UpdateReport& that ReportFor hands out
// stays valid forever (std::map nodes are stable) and is mutated without
// the lock — safe because a report's fields are only written by its own
// flow, whose handlers the owning manager serializes (DESIGN.md §10).
class StatisticsModule {
 public:
  // Creates (if needed) and returns the report for an update.
  UpdateReport& ReportFor(const FlowId& update);

  const UpdateReport* FindReport(const FlowId& update) const;
  // Unguarded view for quiescent inspection (reports/tests after Run()).
  const std::map<FlowId, UpdateReport>& reports() const { return reports_; }

  // WAL/checkpoint/recovery counters; DurableStorage writes into this.
  DurabilityStats& durability() { return durability_; }
  const DurabilityStats& durability() const { return durability_; }

  // The node's metric registry: every subsystem on the node registers its
  // counters/gauges/histograms here, and the whole registry ships to the
  // super-peer as a snapshot trailer of the kStatsReport payload.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // The node's wire-cost ledger. The node attaches it to the network
  // (NetworkBase::AttachCostLedger) when profiling is enabled; until then
  // it stays empty and contributes nothing to the serialized bundle.
  CostLedger& cost() { return cost_; }
  const CostLedger& cost() const { return cost_; }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    reports_.clear();
  }

  // Payload body of a kStatsReport message: every accumulated report,
  // then the metrics snapshot (the registry, plus the cost ledger and the
  // durability counters when they counted anything).
  std::vector<uint8_t> SerializeAll() const;
  static Result<StatsBundle> DeserializeBundle(
      const std::vector<uint8_t>& payload);
  // Compatibility shim: the reports only.
  static Result<std::vector<UpdateReport>> DeserializeAll(
      const std::vector<uint8_t>& payload);

 private:
  mutable std::mutex mu_;  // guards the structure of reports_
  std::map<FlowId, UpdateReport> reports_;
  DurabilityStats durability_;
  MetricsRegistry metrics_;
  CostLedger cost_;
};

}  // namespace codb

#endif  // CODB_CORE_STATISTICS_H_
