// codb_trace — inspect a trace captured by the obs flow tracer.
//
// Reads either export format (Chrome trace_event JSON with a
// "traceEvents" array, or the JSONL stream — detected from the first
// non-space byte) and prints, per flow, the span tree with virtual-time
// offsets and durations, followed by the flow's critical path: the
// parent chain ending at the span that finishes last, which is the
// sequence of hops and handler executions that bounded the flow's
// completion time.
//
// With --profile <metrics.json>, critical-path spans are annotated with
// the queue-sojourn p50/p99 of their cost class, read from a queue
// profiler snapshot (bench `--json` output, a codb_profile dump, or a raw
// MetricsSnapshot::ToJson()) — so the hop a flow stalls on can be compared
// against what the network queues were doing at the time.
//
// Usage: codb_trace <trace.json|trace.jsonl|-> [--flow <substring>]
//                   [--profile <metrics.json>]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/message.h"
#include "obs/cost_ledger.h"
#include "obs/json.h"

namespace codb {
namespace {

struct SpanRow {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t node = 0;
  std::string name;
  std::string flow;
  // Wire type of a net.deliver span ("UPDATE_DATA", ...), empty for
  // handler spans; drives the --profile cost-class annotation.
  std::string msg_type;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  bool instant = false;
};

// queue-sojourn p50/p99 per cost-class name, loaded from --profile.
struct SojournStats {
  double p50 = 0;
  double p99 = 0;
};
using ProfileMap = std::map<std::string, SojournStats>;

// Reads one parsed event object (either format uses the same member
// names once Chrome's "args" is flattened) into a SpanRow.
SpanRow RowFromChromeEvent(const JsonValue& event) {
  SpanRow row;
  row.name = event.GetString("name");
  row.node = static_cast<uint64_t>(event.GetNumber("pid"));
  row.ts_us = static_cast<int64_t>(event.GetNumber("ts"));
  row.dur_us = static_cast<int64_t>(event.GetNumber("dur"));
  row.instant = event.GetString("ph") == "i";
  if (const JsonValue* args = event.Find("args")) {
    row.id = static_cast<uint64_t>(args->GetNumber("span"));
    row.parent = static_cast<uint64_t>(args->GetNumber("parent"));
    row.flow = args->GetString("flow");
    row.msg_type = args->GetString("type");
  }
  return row;
}

struct Trace {
  std::vector<SpanRow> spans;
  std::map<uint64_t, std::string> node_names;
};

bool LoadChrome(const JsonValue& doc, Trace* trace) {
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;
  for (const JsonValue& event : events->items()) {
    std::string ph = event.GetString("ph");
    if (ph == "M" && event.GetString("name") == "process_name") {
      if (const JsonValue* args = event.Find("args")) {
        trace->node_names[static_cast<uint64_t>(
            event.GetNumber("pid"))] = args->GetString("name");
      }
      continue;
    }
    if (ph != "X" && ph != "i") continue;  // skip flow arrows s/f
    trace->spans.push_back(RowFromChromeEvent(event));
  }
  return true;
}

bool LoadJsonl(const std::string& text, Trace* trace) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad jsonl line: %s\n",
                   parsed.status().ToString().c_str());
      return false;
    }
    const JsonValue& event = parsed.value();
    std::string type = event.GetString("type");
    if (type != "span" && type != "instant") continue;
    SpanRow row;
    row.id = static_cast<uint64_t>(event.GetNumber("id"));
    row.parent = static_cast<uint64_t>(event.GetNumber("parent"));
    row.node = static_cast<uint64_t>(event.GetNumber("node"));
    row.name = event.GetString("name");
    row.flow = event.GetString("flow");
    if (const JsonValue* args = event.Find("args")) {
      row.msg_type = args->GetString("type");
    }
    row.ts_us = static_cast<int64_t>(event.GetNumber("ts_us"));
    row.dur_us = static_cast<int64_t>(event.GetNumber("dur_us"));
    row.instant = type == "instant";
    trace->spans.push_back(row);
  }
  return true;
}

std::string NodeLabel(const Trace& trace, uint64_t node) {
  auto it = trace.node_names.find(node);
  if (it != trace.node_names.end()) return it->second;
  return "node" + std::to_string(node);
}

// Maps a wire-type name back to its cost-class label through the same
// classifier the ledger uses, so the annotation cannot drift from the
// accounting.
std::string ClassOfTypeName(const std::string& type_name) {
  static const MessageType kAllTypes[] = {
      MessageType::kAdvertisement,
      MessageType::kUpdateRequest,  MessageType::kUpdateData,
      MessageType::kLinkClosed,     MessageType::kUpdateAck,
      MessageType::kUpdateComplete, MessageType::kQueryRequest,
      MessageType::kQueryResult,    MessageType::kQueryDone,
      MessageType::kStatsRequest,   MessageType::kStatsReport,
      MessageType::kDeliveryAck,    MessageType::kHeartbeat,
      MessageType::kHeartbeatAck,   MessageType::kFederationReport,
      MessageType::kConfigSlice,    MessageType::kConfigDelta,
      MessageType::kConfigFetch,    MessageType::kConfigAck,
  };
  for (MessageType type : kAllTypes) {
    if (type_name == MessageTypeName(type)) {
      return CostClassName(ClassifyMessage(type, /*retransmit=*/false));
    }
  }
  return "";
}

// The cost class a span's queue behaviour is looked up under: net.deliver
// spans carry their wire type; update/query handler spans ride the data
// class.
std::string SpanClass(const SpanRow& span) {
  if (!span.msg_type.empty()) return ClassOfTypeName(span.msg_type);
  if (span.name.rfind("update.", 0) == 0 ||
      span.name.rfind("query.", 0) == 0) {
    return "data";
  }
  return "";
}

std::string ProfileAnnotation(const SpanRow& span,
                              const ProfileMap& profile) {
  if (profile.empty()) return "";
  std::string cls = SpanClass(span);
  if (cls.empty()) return "";
  auto it = profile.find(cls);
  if (it == profile.end()) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  [%s queue p50 %.0f p99 %.0f us]",
                cls.c_str(), it->second.p50, it->second.p99);
  return buf;
}

// Walks the profile document (any shape codb_profile accepts — bench
// scenario arrays, combined captures, raw metrics dumps) and pulls every
// queue.sojourn_us.<class> histogram's p50/p99.
void CollectSojourns(const JsonValue& value, ProfileMap* out) {
  if (value.is_array()) {
    for (const JsonValue& item : value.items()) CollectSojourns(item, out);
    return;
  }
  if (!value.is_object()) return;
  constexpr char kPrefix[] = "queue.sojourn_us.";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  for (const auto& [key, member] : value.members()) {
    if (member.is_object() && key.rfind(kPrefix, 0) == 0) {
      SojournStats stats;
      stats.p50 = member.GetNumber("p50");
      stats.p99 = member.GetNumber("p99");
      (*out)[key.substr(kPrefixLen)] = stats;
    } else {
      CollectSojourns(member, out);
    }
  }
}

// One flow's spans, indexed for tree printing.
struct FlowView {
  std::vector<const SpanRow*> spans;           // sorted by (ts, id)
  std::map<uint64_t, const SpanRow*> by_id;
  std::map<uint64_t, std::vector<const SpanRow*>> children;
};

void PrintTree(const Trace& trace, const FlowView& view,
               const SpanRow& span, int depth, int64_t origin) {
  std::printf("  %*s%-24s %-8s +%-8lld %8lld us%s\n", depth * 2, "",
              span.name.c_str(), NodeLabel(trace, span.node).c_str(),
              static_cast<long long>(span.ts_us - origin),
              static_cast<long long>(span.dur_us),
              span.instant ? "  (instant)" : "");
  auto kids = view.children.find(span.id);
  if (kids == view.children.end()) return;
  for (const SpanRow* child : kids->second) {
    PrintTree(trace, view, *child, depth + 1, origin);
  }
}

void PrintFlow(const Trace& trace, const std::string& flow,
               const std::vector<const SpanRow*>& spans,
               const ProfileMap& profile) {
  // The flow's handler spans are stitched together by untagged transport
  // spans (net.deliver carries no flow — the network layer never parses
  // payloads). Pull every ancestor of a tagged span into the view so the
  // tree shows the actual causal chain, rooted at the initiating span.
  std::map<uint64_t, const SpanRow*> all_by_id;
  for (const SpanRow& span : trace.spans) all_by_id[span.id] = &span;
  std::map<uint64_t, const SpanRow*> selected;
  for (const SpanRow* span : spans) selected[span->id] = span;
  for (const SpanRow* span : spans) {
    uint64_t parent = span->parent;
    size_t hops = 0;
    while (parent != 0 && selected.count(parent) == 0 &&
           hops++ < trace.spans.size()) {
      auto it = all_by_id.find(parent);
      if (it == all_by_id.end()) break;
      selected[parent] = it->second;
      parent = it->second->parent;
    }
  }

  FlowView view;
  for (const auto& [id, span] : selected) view.spans.push_back(span);
  std::sort(view.spans.begin(), view.spans.end(),
            [](const SpanRow* a, const SpanRow* b) {
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->id < b->id;
            });
  for (const SpanRow* span : view.spans) view.by_id[span->id] = span;
  for (const SpanRow* span : view.spans) {
    if (span->parent != 0 && view.by_id.count(span->parent) > 0) {
      view.children[span->parent].push_back(span);
    }
  }

  int64_t origin = view.spans.front()->ts_us;
  int64_t end = origin;
  const SpanRow* last = view.spans.front();
  for (const SpanRow* span : view.spans) {
    int64_t finish = span->ts_us + span->dur_us;
    if (finish > end) {
      end = finish;
      last = span;
    }
  }

  std::printf("flow %s: %zu spans (%zu linking), %lld us\n",
              flow.empty() ? "(untagged)" : flow.c_str(), spans.size(),
              view.spans.size() - spans.size(),
              static_cast<long long>(end - origin));

  // The tree: every span whose parent is absent from this flow is a root
  // (cross-flow or untraced parents truncate cleanly).
  for (const SpanRow* span : view.spans) {
    if (span->parent == 0 || view.by_id.count(span->parent) == 0) {
      PrintTree(trace, view, *span, 0, origin);
    }
  }

  // Critical path: parent chain of the last-finishing span.
  std::vector<const SpanRow*> path;
  for (const SpanRow* span = last; span != nullptr;) {
    path.push_back(span);
    auto it = view.by_id.find(span->parent);
    span = it != view.by_id.end() ? it->second : nullptr;
    if (path.size() > view.spans.size()) break;  // defensive: cycles
  }
  std::reverse(path.begin(), path.end());
  std::printf("  critical path (%zu spans):\n", path.size());
  for (const SpanRow* span : path) {
    std::printf("    %-24s %-8s +%-8lld %8lld us%s\n", span->name.c_str(),
                NodeLabel(trace, span->node).c_str(),
                static_cast<long long>(span->ts_us - origin),
                static_cast<long long>(span->dur_us),
                ProfileAnnotation(*span, profile).c_str());
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  std::string path;
  std::string flow_filter;
  std::string profile_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flow") == 0 && i + 1 < argc) {
      flow_filter = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: codb_trace <trace.json|trace.jsonl|-> "
                 "[--flow <substr>] [--profile <metrics.json>]\n");
    return 2;
  }

  ProfileMap profile;
  if (!profile_path.empty()) {
    std::ifstream in(profile_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", profile_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<JsonValue> doc = ParseJson(buffer.str());
    if (!doc.ok()) {
      std::fprintf(stderr, "bad profile json: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    CollectSojourns(doc.value(), &profile);
    if (profile.empty()) {
      std::fprintf(stderr,
                   "warning: %s carries no queue.sojourn_us.* histograms\n",
                   profile_path.c_str());
    }
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

  Trace trace;
  size_t first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{' &&
      text.find("\"traceEvents\"") != std::string::npos) {
    Result<JsonValue> doc = ParseJson(text);
    if (!doc.ok()) {
      std::fprintf(stderr, "bad trace json: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    if (!LoadChrome(doc.value(), &trace)) {
      std::fprintf(stderr, "no traceEvents array in %s\n", path.c_str());
      return 1;
    }
  } else if (!LoadJsonl(text, &trace)) {
    return 1;
  }

  // Group by flow; untagged spans come last.
  std::map<std::string, std::vector<const SpanRow*>> by_flow;
  for (const SpanRow& span : trace.spans) by_flow[span.flow].push_back(&span);

  size_t printed = 0;
  for (const auto& [flow, spans] : by_flow) {
    if (flow.empty() && by_flow.size() > 1 && flow_filter.empty()) {
      continue;  // skip untagged noise unless it is all there is
    }
    if (!flow_filter.empty() &&
        flow.find(flow_filter) == std::string::npos) {
      continue;
    }
    PrintFlow(trace, flow, spans, profile);
    ++printed;
  }
  if (printed == 0) {
    std::fprintf(stderr, "no matching flows (%zu spans total)\n",
                 trace.spans.size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace codb

int main(int argc, char** argv) { return codb::Main(argc, argv); }
