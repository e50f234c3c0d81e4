// Per-layer measurement for the traced run: self time of the spans the
// program already emits, public counters, and probes that call one
// layer's public functions directly on inputs shaped like the workload's.

#ifndef CODB_PERFBENCH_LAYERS_H_
#define CODB_PERFBENCH_LAYERS_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "net/message.h"
#include "obs/cost_ledger.h"
#include "obs/trace.h"
#include "workloads.h"

namespace codb::perfbench {

// The message types diffusing flows exchange.
inline constexpr std::array<MessageType, 8> kFlowTypes = {
    MessageType::kUpdateRequest, MessageType::kUpdateData,
    MessageType::kLinkClosed,    MessageType::kUpdateAck,
    MessageType::kUpdateComplete, MessageType::kQueryRequest,
    MessageType::kQueryResult,   MessageType::kQueryDone};

// Cumulative public counters of one deployment.
struct Counters {
  std::array<uint64_t, kFlowTypes.size()> msgs{};
  std::array<uint64_t, kFlowTypes.size()> bytes{};
  // Testbed cost ledger (sent side) and queue-profiler handler service
  // time, per cost class; zero unless the testbed is profiled.
  std::array<uint64_t, kCostClassCount> cost_bytes{};
  std::array<uint64_t, kCostClassCount> service_us{};
  // Sums over every node.
  uint64_t eval_rows = 0;          // update.eval_rows
  uint64_t tuples_shipped = 0;     // update.tuples_shipped
  uint64_t dups_suppressed = 0;    // update.dups_suppressed
  uint64_t memory_suppressed = 0;  // update.memory_suppressed
  uint64_t wal_bytes = 0;          // storage.wal.bytes

  static Counters Read(Testbed& bed);
  // this += after - before.
  void AddDelta(const Counters& after, const Counters& before);
};

// Self time of the program's spans, grouped by layer and accumulated over
// the traced ops. A span's self time is its duration minus the durations
// of the spans nested in it on the same node and thread; the wall time of
// an op that no span covers is `unattributed_us`.
class SpanLayers {
 public:
  // The layer metric names, in report order.
  static const std::vector<std::string>& Names();

  // Takes and clears the tracer's finished spans of one traced op.
  void Harvest(double op_wall_us);

  uint64_t ops() const { return ops_; }
  // Per traced op, microseconds; includes "unattributed_us".
  std::map<std::string, double> PerOp() const;
  size_t spans_seen() const { return spans_seen_; }

  // Writes the kept sample of spans as JSON lines.
  Status WriteJsonl(const std::string& path) const;

 private:
  std::map<std::string, double> self_us_;
  uint64_t ops_ = 0;
  size_t spans_seen_ = 0;
  std::vector<TraceSpan> kept_;  // bounded sample written at the end
};

// A probe measurement: one metric, its unit and its samples.
struct Probe {
  std::string name;
  std::string unit;
  Samples samples;
};

// Probes of relation, query and the core export memory on the workload's
// deployment: the n0 <- n1 rule, n1's store as exporter, n0's as importer.
std::vector<Probe> RunProbes(Workload& workload);

}  // namespace codb::perfbench

#endif  // CODB_PERFBENCH_LAYERS_H_
