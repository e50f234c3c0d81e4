// codb_profile — render cost-ledger and queue-profiler snapshots.
//
// Input is JSON in any of the shapes the observability layer produces:
//   * a bench `--json` scenario array (bench_topologies etc.) — scenarios
//     carrying "cost"/"profile" members are profiled; pick one with
//     --scenario <substring>, default is the first that has cost data;
//   * a combined capture ({"codb_bench_set":1, "benches": {...}}) from
//     bench/compare_bench.py capture;
//   * a single object with "cost"/"profile"/"metrics"/"retained" members;
//   * a flat metrics object (cost.* / queue.* keys), e.g. a
//     MetricsSnapshot::ToJson() dump.
//
// The text mode prints the per-class byte breakdown (same renderer as the
// super-peer's final report) followed by the event-loop profile: queue
// sojourn and handler service time per class, queue-depth watermarks and
// scheduled-timer lag, then the retained-state gauges the record carries
// (query.states, query.layer_rows). --json emits the normalized
// {"scenario", "cost", "queue", "retained"} object instead.
//
// Usage: codb_profile <bench.json|-> [--scenario <substr>] [--json]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/cost_ledger.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace codb {
namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Gauges of state a node retains across flows: per-query states and the
// rows their overlays layered (core/query_manager.h).
const char* const kRetainedGauges[] = {"query.states", "query.layer_rows"};

// One profile-bearing record extracted from the input: its display name
// plus the flat cost.* and queue.* entries and the retained-state gauges.
// Only cost and queue data make a record worth profiling; the gauges ride
// along.
struct ProfileRecord {
  std::string name;
  std::map<std::string, JsonValue> cost;
  std::map<std::string, JsonValue> queue;
  std::map<std::string, JsonValue> retained;

  bool has_data() const { return !cost.empty() || !queue.empty(); }
};

// Splits a flat metrics-style object into the record's cost/queue maps.
void AbsorbFlat(const JsonValue& object, ProfileRecord* record) {
  if (!object.is_object()) return;
  for (const auto& [key, value] : object.members()) {
    if (StartsWith(key, "cost.")) {
      record->cost.emplace(key, value);
    } else if (StartsWith(key, "queue.")) {
      record->queue.emplace(key, value);
    }
    for (const char* gauge : kRetainedGauges) {
      if (key == gauge) record->retained.emplace(key, value);
    }
  }
}

ProfileRecord RecordFromScenario(const JsonValue& scenario) {
  ProfileRecord record;
  record.name = scenario.GetString("scenario", "(unnamed)");
  if (const JsonValue* cost = scenario.Find("cost")) AbsorbFlat(*cost, &record);
  if (const JsonValue* profile = scenario.Find("profile")) {
    AbsorbFlat(*profile, &record);
  }
  if (const JsonValue* metrics = scenario.Find("metrics")) {
    AbsorbFlat(*metrics, &record);
  }
  if (const JsonValue* retained = scenario.Find("retained")) {
    AbsorbFlat(*retained, &record);
  }
  // A flat scenario (or a raw metrics dump) carries the keys directly.
  AbsorbFlat(scenario, &record);
  return record;
}

std::vector<ProfileRecord> ExtractRecords(const JsonValue& doc) {
  std::vector<ProfileRecord> records;
  if (doc.is_array()) {
    for (const JsonValue& scenario : doc.items()) {
      records.push_back(RecordFromScenario(scenario));
    }
    return records;
  }
  if (doc.is_object() && doc.Find("codb_bench_set") != nullptr) {
    if (const JsonValue* benches = doc.Find("benches")) {
      for (const auto& [bench, scenarios] : benches->members()) {
        if (!scenarios.is_array()) continue;
        for (const JsonValue& scenario : scenarios.items()) {
          ProfileRecord record = RecordFromScenario(scenario);
          record.name = bench + "/" + record.name;
          records.push_back(std::move(record));
        }
      }
    }
    return records;
  }
  records.push_back(RecordFromScenario(doc));
  return records;
}

// Rebuilds a MetricsSnapshot from the record's cost counters so the text
// rendering reuses RenderCostBreakdown — the same table the super-peer's
// final report prints.
MetricsSnapshot CostSnapshot(const ProfileRecord& record) {
  MetricsSnapshot snapshot;
  for (const auto& [key, value] : record.cost) {
    if (!value.is_number()) continue;
    snapshot.SetCounter(key, static_cast<uint64_t>(value.AsNumber()));
  }
  return snapshot;
}

void PrintHistogramLine(const std::string& label, const JsonValue& hist) {
  double count = hist.GetNumber("count");
  if (count <= 0) {
    std::printf("    %-28s (empty)\n", label.c_str());
    return;
  }
  std::printf("    %-28s count %10.0f  mean %8.1f  p50 %8.0f  p99 %8.0f\n",
              label.c_str(), count, hist.GetNumber("mean"),
              hist.GetNumber("p50"), hist.GetNumber("p99"));
}

void PrintQueueSection(const ProfileRecord& record, const char* title,
                       const char* prefix) {
  bool printed_title = false;
  for (const auto& [key, value] : record.queue) {
    if (!StartsWith(key, prefix) || !value.is_object()) continue;
    if (!printed_title) {
      std::printf("  %s (us):\n", title);
      printed_title = true;
    }
    PrintHistogramLine(key.substr(std::strlen(prefix)), value);
  }
}

void PrintText(const ProfileRecord& record) {
  std::printf("profile: %s\n", record.name.c_str());

  std::string cost = RenderCostBreakdown(CostSnapshot(record), "    ");
  if (!cost.empty()) {
    std::printf("  wire cost (bytes by class):\n%s", cost.c_str());
  }

  PrintQueueSection(record, "queue sojourn", "queue.sojourn_us.");
  PrintQueueSection(record, "handler service time", "queue.service_us.");
  if (const auto it = record.queue.find("queue.timer_lag_us");
      it != record.queue.end() && it->second.is_object()) {
    std::printf("  timer lag (us):\n");
    PrintHistogramLine("timer_lag", it->second);
  }

  double depth_fg = -1, depth_maint = -1;
  if (auto it = record.queue.find("queue.depth.fg");
      it != record.queue.end() && it->second.is_number()) {
    depth_fg = it->second.AsNumber();
  }
  if (auto it = record.queue.find("queue.depth.maint");
      it != record.queue.end() && it->second.is_number()) {
    depth_maint = it->second.AsNumber();
  }
  if (depth_fg >= 0 || depth_maint >= 0) {
    std::printf("  queue depth watermarks: foreground %.0f, maintenance "
                "%.0f\n",
                depth_fg < 0 ? 0 : depth_fg,
                depth_maint < 0 ? 0 : depth_maint);
  }
  if (!record.retained.empty()) {
    std::printf("  retained state (gauges):\n");
    for (const auto& [key, value] : record.retained) {
      std::printf("    %-28s %10.0f\n", key.c_str(),
                  value.is_number() ? value.AsNumber() : 0.0);
    }
  }
  std::printf("\n");
}

JsonValue ToJsonRecord(const ProfileRecord& record) {
  JsonValue out = JsonValue::Object();
  out.Set("scenario", JsonValue::Str(record.name));
  JsonValue cost = JsonValue::Object();
  for (const auto& [key, value] : record.cost) cost.Set(key, value);
  out.Set("cost", std::move(cost));
  JsonValue queue = JsonValue::Object();
  for (const auto& [key, value] : record.queue) queue.Set(key, value);
  out.Set("queue", std::move(queue));
  JsonValue retained = JsonValue::Object();
  for (const auto& [key, value] : record.retained) retained.Set(key, value);
  out.Set("retained", std::move(retained));
  return out;
}

int Main(int argc, char** argv) {
  std::string path;
  std::string scenario_filter;
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_filter = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_mode = true;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: codb_profile <bench.json|-> [--scenario <substr>] "
                 "[--json]\n");
    return 2;
  }

  std::string text;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  Result<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    std::fprintf(stderr, "bad json: %s\n", doc.status().ToString().c_str());
    return 1;
  }

  std::vector<ProfileRecord> selected;
  for (ProfileRecord& record : ExtractRecords(doc.value())) {
    if (!record.has_data()) continue;
    if (!scenario_filter.empty() &&
        record.name.find(scenario_filter) == std::string::npos) {
      continue;
    }
    selected.push_back(std::move(record));
    // Without a filter only the first profiled scenario prints, so the
    // common case (one capture, one deployment of interest) stays terse.
    if (scenario_filter.empty()) break;
  }
  if (selected.empty()) {
    std::string matching = scenario_filter.empty()
                               ? ""
                               : " matching '" + scenario_filter + "'";
    std::fprintf(stderr, "no scenarios with cost/profile data%s\n",
                 matching.c_str());
    return 1;
  }

  if (json_mode) {
    JsonValue out = JsonValue::Array();
    for (const ProfileRecord& record : selected) {
      out.Push(ToJsonRecord(record));
    }
    std::printf("%s\n", out.Dump().c_str());
  } else {
    for (const ProfileRecord& record : selected) PrintText(record);
  }
  return 0;
}

}  // namespace
}  // namespace codb

int main(int argc, char** argv) { return codb::Main(argc, argv); }
