#include "core/statistics.h"

#include "util/string_util.h"

namespace codb {

namespace {

void WritePeerSet(WireWriter& writer, const std::set<uint32_t>& peers) {
  writer.WriteU32(static_cast<uint32_t>(peers.size()));
  for (uint32_t p : peers) writer.WriteU32(p);
}

Result<std::set<uint32_t>> ReadPeerSet(WireReader& reader) {
  std::set<uint32_t> peers;
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(uint32_t p, reader.ReadU32());
    peers.insert(p);
  }
  return peers;
}

}  // namespace

void WriteRuleTraffic(WireWriter& writer,
                      const std::map<std::string, RuleTrafficStats>& stats) {
  writer.WriteU32(static_cast<uint32_t>(stats.size()));
  for (const auto& [rule, traffic] : stats) {
    writer.WriteString(rule);
    writer.WriteU64(traffic.messages);
    writer.WriteU64(traffic.tuples);
    writer.WriteU64(traffic.bytes);
  }
}

Result<std::map<std::string, RuleTrafficStats>> ReadRuleTraffic(
    WireReader& reader) {
  std::map<std::string, RuleTrafficStats> stats;
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(std::string rule, reader.ReadString());
    RuleTrafficStats traffic;
    CODB_ASSIGN_OR_RETURN(traffic.messages, reader.ReadU64());
    CODB_ASSIGN_OR_RETURN(traffic.tuples, reader.ReadU64());
    CODB_ASSIGN_OR_RETURN(traffic.bytes, reader.ReadU64());
    stats.emplace(std::move(rule), traffic);
  }
  return stats;
}

void UpdateReport::SerializeTo(WireWriter& writer) const {
  writer.WriteU8(static_cast<uint8_t>(update.scope));
  writer.WriteU32(update.origin);
  writer.WriteU64(update.seq);
  writer.WriteI64(start_virtual_us);
  writer.WriteI64(closed_virtual_us);
  writer.WriteI64(complete_virtual_us);
  writer.WriteDouble(wall_micros);
  writer.WriteU64(tuples_added);
  writer.WriteU64(data_messages_received);
  writer.WriteU64(data_bytes_received);
  writer.WriteU64(data_messages_sent);
  writer.WriteU64(data_bytes_sent);
  writer.WriteU32(longest_path_nodes);
  writer.WriteU8(aborted ? 1 : 0);
  WriteRuleTraffic(writer, received_per_rule);
  WriteRuleTraffic(writer, sent_per_rule);
  WritePeerSet(writer, acquaintances_queried);
  WritePeerSet(writer, result_destinations);
}

Result<UpdateReport> UpdateReport::DeserializeFrom(WireReader& reader) {
  UpdateReport report;
  CODB_ASSIGN_OR_RETURN(uint8_t scope, reader.ReadU8());
  report.update.scope = static_cast<FlowId::Scope>(scope);
  CODB_ASSIGN_OR_RETURN(report.update.origin, reader.ReadU32());
  CODB_ASSIGN_OR_RETURN(report.update.seq, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(report.start_virtual_us, reader.ReadI64());
  CODB_ASSIGN_OR_RETURN(report.closed_virtual_us, reader.ReadI64());
  CODB_ASSIGN_OR_RETURN(report.complete_virtual_us, reader.ReadI64());
  CODB_ASSIGN_OR_RETURN(report.wall_micros, reader.ReadDouble());
  CODB_ASSIGN_OR_RETURN(report.tuples_added, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(report.data_messages_received, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(report.data_bytes_received, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(report.data_messages_sent, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(report.data_bytes_sent, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(report.longest_path_nodes, reader.ReadU32());
  CODB_ASSIGN_OR_RETURN(uint8_t aborted, reader.ReadU8());
  report.aborted = aborted != 0;
  CODB_ASSIGN_OR_RETURN(report.received_per_rule, ReadRuleTraffic(reader));
  CODB_ASSIGN_OR_RETURN(report.sent_per_rule, ReadRuleTraffic(reader));
  CODB_ASSIGN_OR_RETURN(report.acquaintances_queried, ReadPeerSet(reader));
  CODB_ASSIGN_OR_RETURN(report.result_destinations, ReadPeerSet(reader));
  return report;
}

std::string UpdateReport::Render() const {
  std::string out = "update report for " + update.ToString() +
                    (aborted ? " [ABORTED: partial coverage]" : "") + "\n";
  out += StrFormat("  started at       %lld us (virtual)\n",
                   static_cast<long long>(start_virtual_us));
  out += StrFormat("  links closed at  %lld us\n",
                   static_cast<long long>(closed_virtual_us));
  out += StrFormat("  completed at     %lld us\n",
                   static_cast<long long>(complete_virtual_us));
  if (complete_virtual_us >= 0 && start_virtual_us >= 0) {
    out += StrFormat("  total time       %lld us (virtual), %.0f us (wall)\n",
                     static_cast<long long>(complete_virtual_us -
                                            start_virtual_us),
                     wall_micros);
  }
  out += StrFormat(
      "  data in          %llu msgs, %llu tuples added, %s\n",
      static_cast<unsigned long long>(data_messages_received),
      static_cast<unsigned long long>(tuples_added),
      HumanBytes(data_bytes_received).c_str());
  out += StrFormat("  data out         %llu msgs, %s\n",
                   static_cast<unsigned long long>(data_messages_sent),
                   HumanBytes(data_bytes_sent).c_str());
  out += StrFormat("  longest path     %u nodes\n", longest_path_nodes);
  for (const auto& [rule, traffic] : received_per_rule) {
    out += StrFormat("  <- rule %-12s %6llu msgs %8llu tuples %10s\n",
                     rule.c_str(),
                     static_cast<unsigned long long>(traffic.messages),
                     static_cast<unsigned long long>(traffic.tuples),
                     HumanBytes(traffic.bytes).c_str());
  }
  for (const auto& [rule, traffic] : sent_per_rule) {
    out += StrFormat("  -> rule %-12s %6llu msgs %8llu tuples %10s\n",
                     rule.c_str(),
                     static_cast<unsigned long long>(traffic.messages),
                     static_cast<unsigned long long>(traffic.tuples),
                     HumanBytes(traffic.bytes).c_str());
  }
  return out;
}

UpdateReport& StatisticsModule::ReportFor(const FlowId& update) {
  std::lock_guard<std::mutex> lock(mu_);
  UpdateReport& report = reports_[update];
  report.update = update;
  return report;
}

const UpdateReport* StatisticsModule::FindReport(const FlowId& update) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = reports_.find(update);
  return it == reports_.end() ? nullptr : &it->second;
}

std::vector<uint8_t> StatisticsModule::SerializeAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  WireWriter writer;
  writer.WriteU32(static_cast<uint32_t>(reports_.size()));
  for (const auto& [id, report] : reports_) {
    report.SerializeTo(writer);
  }
  // The cost ledger and the durability counters ride the metrics trailer
  // as cost.* and storage.* entries; an idle ledger snapshots to nothing,
  // and a node without durable activity adds no storage.* entry.
  MetricsSnapshot metrics = metrics_.Snapshot();
  metrics.Merge(cost_.CostSnapshot());
  if (durability_.Any()) metrics.Merge(durability_.ToSnapshot());
  metrics.SerializeTo(writer);
  return writer.Take();
}

Result<StatsBundle> StatisticsModule::DeserializeBundle(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  // Every report starts with its FlowId.
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(FlowId::kWireBytes));
  StatsBundle bundle;
  bundle.reports.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(UpdateReport report,
                          UpdateReport::DeserializeFrom(reader));
    bundle.reports.push_back(std::move(report));
  }
  CODB_ASSIGN_OR_RETURN(bundle.metrics,
                        MetricsSnapshot::DeserializeFrom(reader));
  return bundle;
}

Result<std::vector<UpdateReport>> StatisticsModule::DeserializeAll(
    const std::vector<uint8_t>& payload) {
  CODB_ASSIGN_OR_RETURN(StatsBundle bundle, DeserializeBundle(payload));
  return std::move(bundle.reports);
}

}  // namespace codb
