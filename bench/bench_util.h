// Shared helpers for the experiment harness binaries (see DESIGN.md §3):
// running a global update over a generated network and collecting the
// aggregate metrics each experiment reports.

#ifndef CODB_BENCH_BENCH_UTIL_H_
#define CODB_BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace bench {

struct UpdateMetrics {
  bool completed = false;
  int64_t virtual_us = 0;     // network-wide start -> initiator completion
  double wall_ms = 0;         // real compute for the whole simulation
  uint64_t events = 0;        // simulator events processed
  uint64_t data_messages = 0; // kUpdateData messages network-wide
  uint64_t data_bytes = 0;
  uint64_t control_messages = 0;  // request/ack/link-closed/complete
  uint64_t tuples_moved = 0;      // sum of tuples_added across nodes
  uint32_t longest_path = 0;      // max propagation path (nodes)
  size_t initiator_tuples = 0;    // initiator store size afterwards
  // Every node's metric registry merged with the transport counters, so a
  // scenario's machine-readable record carries the full instrument set.
  MetricsSnapshot registry;
};

// --- machine-readable output -------------------------------------------
// Every harness accepts --json: the human tables are suppressed and one
// JSON object per scenario is accumulated instead, emitted as a single
// JSON array on stdout when the bench finishes (tools/run_experiments.sh
// redirects that into bench/BENCH_<name>.json).

inline bool& JsonModeFlag() {
  static bool mode = false;
  return mode;
}

inline bool JsonMode() { return JsonModeFlag(); }

// printf that goes quiet in --json mode; benches route their tables
// through this so stdout stays pure JSON on the machine path.
inline void Print(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline void Print(const char* fmt, ...) {
  if (JsonMode()) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
}

inline JsonValue& JsonScenarios() {
  static JsonValue scenarios = JsonValue::Array();
  return scenarios;
}

inline JsonValue ToJson(const UpdateMetrics& m) {
  JsonValue obj = JsonValue::Object();
  obj.Set("completed", JsonValue::Bool(m.completed));
  obj.Set("virtual_us", JsonValue::Int(m.virtual_us));
  obj.Set("wall_ms", JsonValue::Number(m.wall_ms));
  obj.Set("events", JsonValue::Uint(m.events));
  obj.Set("data_messages", JsonValue::Uint(m.data_messages));
  obj.Set("data_bytes", JsonValue::Uint(m.data_bytes));
  obj.Set("control_messages", JsonValue::Uint(m.control_messages));
  obj.Set("tuples_moved", JsonValue::Uint(m.tuples_moved));
  obj.Set("longest_path", JsonValue::Uint(m.longest_path));
  obj.Set("initiator_tuples", JsonValue::Uint(m.initiator_tuples));
  obj.Set("metrics", m.registry.ToJson());
  return obj;
}

// Records one scenario (encode parameters into the name: "chain/8").
inline void RecordScenario(const std::string& scenario,
                           const UpdateMetrics& metrics) {
  if (!JsonMode()) return;
  JsonValue obj = ToJson(metrics);
  obj.Set("scenario", JsonValue::Str(scenario));
  JsonScenarios().Push(std::move(obj));
}

// Records a hand-built object, for benches whose scenarios are not a
// plain RunUpdate (recovery, runtime comparisons, ...).
inline void RecordJson(JsonValue obj) {
  if (!JsonMode()) return;
  JsonScenarios().Push(std::move(obj));
}

// Shared main body: parses --json, runs the bench, emits the scenarios.
inline int BenchMain(int argc, char** argv, void (*run)()) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) JsonModeFlag() = true;
  }
  run();
  if (JsonMode()) {
    std::printf("%s\n", JsonScenarios().Dump().c_str());
  }
  return 0;
}

// --- membership churn probe --------------------------------------------
// Schedules silent kills against a membership-enabled testbed and measures
// how long the survivors take to *detect* each death (DESIGN.md §11,
// experiment E14). A victim counts as detected once every one of its
// surviving trackers — its pipe neighbours, nodes and super-peers alike —
// has evicted it. Detection is probed by polling between RunFor slices,
// so the measured latency overshoots the true one by at most one step.

class ChurnProbe {
 public:
  explicit ChurnProbe(Testbed& bed) : bed_(bed) {
    for (const auto& node : bed.nodes()) {
      if (node->membership() != nullptr) {
        sessions_[node->id().value] = node->membership();
      }
    }
    for (size_t s = 0; s < bed.super_peer_count(); ++s) {
      if (bed.super_peer(s).membership() != nullptr) {
        sessions_[bed.super_peer(s).id().value] =
            bed.super_peer(s).membership();
      }
    }
  }

  // Snapshots `name`'s tracker set now and schedules its silent kill
  // `after_us` from now (through the event queue, so it lands mid-run).
  void ScheduleKill(const std::string& name, int64_t after_us) {
    Node* victim = bed_.node(name);
    if (victim == nullptr) {
      std::fprintf(stderr, "churn probe: no node named %s\n", name.c_str());
      std::exit(1);
    }
    Victim v;
    v.name = name;
    v.id = victim->id().value;
    for (PeerId tracker : bed_.network().Neighbors(victim->id())) {
      v.trackers.push_back(tracker.value);
    }
    victim_ids_.insert(v.id);
    victims_.push_back(std::move(v));
    size_t index = victims_.size() - 1;
    bed_.network().ScheduleAfter(after_us, [this, index, name] {
      (void)bed_.SilentKillNode(name);
      victims_[index].killed_at_us = bed_.network().now_us();
    });
  }

  // Advances the network in `step_us` slices until every victim has been
  // detected or `horizon_us` has elapsed.
  void AwaitDetection(int64_t step_us, int64_t horizon_us) {
    int64_t deadline = bed_.network().now_us() + horizon_us;
    while (bed_.network().now_us() < deadline) {
      bed_.network().RunFor(step_us);
      bool all = true;
      for (Victim& victim : victims_) {
        if (victim.detected_at_us >= 0) continue;
        if (victim.killed_at_us < 0 || !Detected(victim)) {
          all = false;
          continue;
        }
        victim.detected_at_us = bed_.network().now_us();
      }
      if (all) break;
    }
  }

  bool AllDetected() const {
    for (const Victim& victim : victims_) {
      if (victim.detected_at_us < 0) return false;
    }
    return !victims_.empty();
  }

  double MeanDetectPeriods(int64_t period_us) const {
    double sum = 0;
    size_t count = 0;
    for (const Victim& victim : victims_) {
      if (victim.detected_at_us < 0) continue;
      sum += Periods(victim, period_us);
      ++count;
    }
    return count == 0 ? 0 : sum / static_cast<double>(count);
  }

  double MaxDetectPeriods(int64_t period_us) const {
    double max = 0;
    for (const Victim& victim : victims_) {
      if (victim.detected_at_us < 0) continue;
      if (Periods(victim, period_us) > max) max = Periods(victim, period_us);
    }
    return max;
  }

  // Every eviction a surviving tracker SHOULD have issued: one per
  // (victim, live tracker) pair.
  uint64_t ExpectedEvictions() const {
    uint64_t expected = 0;
    for (const Victim& victim : victims_) {
      for (uint32_t tracker : victim.trackers) {
        if (victim_ids_.count(tracker) != 0) continue;
        if (sessions_.count(tracker) != 0) ++expected;
      }
    }
    return expected;
  }

  // Evictions actually issued network-wide (survivors only; a victim's
  // own frozen counters are excluded).
  uint64_t Evictions() const {
    uint64_t total = 0;
    for (const auto& [id, session] : sessions_) {
      if (victim_ids_.count(id) != 0) continue;
      total += session->counters().evictions;
    }
    return total;
  }

  // Evictions beyond the expected set — i.e. evictions of LIVE peers.
  uint64_t FalseEvictions() const {
    uint64_t expected = ExpectedEvictions();
    uint64_t actual = Evictions();
    return actual > expected ? actual - expected : 0;
  }

  uint64_t FalseSuspicions() const {
    uint64_t total = 0;
    for (const auto& [id, session] : sessions_) {
      if (victim_ids_.count(id) != 0) continue;
      total += session->counters().false_suspicions;
    }
    return total;
  }

 private:
  struct Victim {
    std::string name;
    uint32_t id = 0;
    std::vector<uint32_t> trackers;
    int64_t killed_at_us = -1;
    int64_t detected_at_us = -1;
  };

  bool Detected(const Victim& victim) const {
    for (uint32_t tracker : victim.trackers) {
      if (victim_ids_.count(tracker) != 0) continue;  // dead trackers
      auto it = sessions_.find(tracker);
      if (it == sessions_.end()) continue;  // peer without a session
      if (it->second->IsPresumedAlive(PeerId(victim.id))) return false;
    }
    return true;
  }

  double Periods(const Victim& victim, int64_t period_us) const {
    return static_cast<double>(victim.detected_at_us - victim.killed_at_us) /
           static_cast<double>(period_us);
  }

  Testbed& bed_;
  std::map<uint32_t, HeartbeatSession*> sessions_;
  std::set<uint32_t> victim_ids_;
  std::vector<Victim> victims_;
};

// Builds a testbed, runs one global update from `initiator`, and collects
// the metrics. Exits with a message on setup failure (benches treat setup
// errors as fatal).
inline UpdateMetrics RunUpdate(const GeneratedNetwork& generated,
                               const std::string& initiator,
                               Testbed::Options options = {}) {
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, options);
  if (!testbed.ok()) {
    std::fprintf(stderr, "testbed: %s\n",
                 testbed.status().ToString().c_str());
    std::exit(1);
  }
  Testbed& bed = *testbed.value();

  // Exclude setup traffic from the measured counters.
  uint64_t base_total = bed.network().stats().total_messages();
  int64_t start_virtual = bed.network().now_us();

  Stopwatch wall;
  Result<FlowId> update = bed.node(initiator)->StartGlobalUpdate();
  if (!update.ok()) {
    std::fprintf(stderr, "update: %s\n",
                 update.status().ToString().c_str());
    std::exit(1);
  }
  UpdateMetrics metrics;
  metrics.events = bed.network().Run();
  metrics.wall_ms = wall.ElapsedSeconds() * 1000.0;
  metrics.completed = bed.AllComplete(update.value());
  metrics.virtual_us = bed.network().now_us() - start_virtual;

  const CostLedger& stats = bed.network().stats();
  metrics.data_messages = stats.MessagesOfType(MessageType::kUpdateData);
  metrics.data_bytes = stats.BytesOfType(MessageType::kUpdateData);
  metrics.control_messages =
      stats.total_messages() - base_total - metrics.data_messages;

  for (const auto& node : bed.nodes()) {
    const UpdateReport* report =
        node->statistics().FindReport(update.value());
    metrics.registry.Merge(node->statistics().metrics().Snapshot());
    if (report == nullptr) continue;
    metrics.tuples_moved += report->tuples_added;
    if (report->longest_path_nodes > metrics.longest_path) {
      metrics.longest_path = report->longest_path_nodes;
    }
  }
  metrics.registry.Merge(stats.Snapshot());
  metrics.initiator_tuples =
      bed.node(initiator)->database().TotalTuples();
  return metrics;
}

}  // namespace bench
}  // namespace codb

#endif  // CODB_BENCH_BENCH_UTIL_H_
