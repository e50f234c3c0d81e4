#include "core/super_peer.h"

#include <algorithm>

#include "core/config_distribution.h"
#include "core/protocol.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace codb {

namespace {

// The config retransmit sweep: one sweep every period, at most this many
// per broadcast. It stops re-arming once every region peer acknowledged,
// so Run()-driven tests still quiesce.
constexpr int64_t kConfigRetransmitPeriodUs = 50'000;
constexpr int kMaxConfigRetransmitRounds = 10;

// Renders the per-update aggregate block of the final report.
std::string RenderAggregates(const std::vector<AggregatedUpdateStats>& aggs) {
  std::string out;
  for (const AggregatedUpdateStats& agg : aggs) {
    out += agg.update.ToString() + ":\n";
    out += StrFormat("  nodes          %zu\n", agg.nodes_reporting);
    out += StrFormat("  total time     %lld us (virtual), %.0f us (wall)\n",
                     static_cast<long long>(agg.total_virtual_us),
                     agg.total_wall_micros);
    out += StrFormat("  data messages  %llu (%s)\n",
                     static_cast<unsigned long long>(agg.data_messages),
                     HumanBytes(agg.data_bytes).c_str());
    out += StrFormat("  tuples added   %llu\n",
                     static_cast<unsigned long long>(agg.tuples_added));
    out += StrFormat("  longest path   %u nodes\n", agg.longest_path_nodes);
    for (const auto& [rule, traffic] : agg.per_rule) {
      out += StrFormat("    rule %-12s %6llu msgs %8llu tuples %10s\n",
                       rule.c_str(),
                       static_cast<unsigned long long>(traffic.messages),
                       static_cast<unsigned long long>(traffic.tuples),
                       HumanBytes(traffic.bytes).c_str());
    }
  }
  return out;
}

}  // namespace

// -- AggregatedUpdateStats ----------------------------------------------------

void AggregatedUpdateStats::Merge(const AggregatedUpdateStats& other) {
  nodes_reporting += other.nodes_reporting;
  total_wall_micros += other.total_wall_micros;
  data_messages += other.data_messages;
  data_bytes += other.data_bytes;
  tuples_added += other.tuples_added;
  longest_path_nodes = std::max(longest_path_nodes,
                                other.longest_path_nodes);
  for (const auto& [rule, traffic] : other.per_rule) {
    RuleTrafficStats& total = per_rule[rule];
    total.messages += traffic.messages;
    total.tuples += traffic.tuples;
    total.bytes += traffic.bytes;
  }
  if (other.min_start_virtual_us >= 0) {
    min_start_virtual_us =
        min_start_virtual_us < 0
            ? other.min_start_virtual_us
            : std::min(min_start_virtual_us, other.min_start_virtual_us);
  }
  if (other.max_complete_virtual_us >= 0) {
    max_complete_virtual_us =
        std::max(max_complete_virtual_us, other.max_complete_virtual_us);
  }
  total_virtual_us =
      (min_start_virtual_us >= 0 && max_complete_virtual_us >= 0)
          ? max_complete_virtual_us - min_start_virtual_us
          : -1;
}

void AggregatedUpdateStats::SerializeTo(WireWriter& writer) const {
  writer.WriteU8(static_cast<uint8_t>(update.scope));
  writer.WriteU32(update.origin);
  writer.WriteU64(update.seq);
  writer.WriteU64(nodes_reporting);
  writer.WriteI64(total_virtual_us);
  writer.WriteI64(min_start_virtual_us);
  writer.WriteI64(max_complete_virtual_us);
  writer.WriteDouble(total_wall_micros);
  writer.WriteU64(data_messages);
  writer.WriteU64(data_bytes);
  writer.WriteU64(tuples_added);
  writer.WriteU32(longest_path_nodes);
  WriteRuleTraffic(writer, per_rule);
}

Result<AggregatedUpdateStats> AggregatedUpdateStats::DeserializeFrom(
    WireReader& reader) {
  AggregatedUpdateStats agg;
  CODB_ASSIGN_OR_RETURN(uint8_t scope, reader.ReadU8());
  if (scope > 1) {
    return Status::ParseError("bad flow scope " + std::to_string(scope));
  }
  agg.update.scope = static_cast<FlowId::Scope>(scope);
  CODB_ASSIGN_OR_RETURN(agg.update.origin, reader.ReadU32());
  CODB_ASSIGN_OR_RETURN(agg.update.seq, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(uint64_t nodes, reader.ReadU64());
  agg.nodes_reporting = static_cast<size_t>(nodes);
  CODB_ASSIGN_OR_RETURN(agg.total_virtual_us, reader.ReadI64());
  CODB_ASSIGN_OR_RETURN(agg.min_start_virtual_us, reader.ReadI64());
  CODB_ASSIGN_OR_RETURN(agg.max_complete_virtual_us, reader.ReadI64());
  CODB_ASSIGN_OR_RETURN(agg.total_wall_micros, reader.ReadDouble());
  CODB_ASSIGN_OR_RETURN(agg.data_messages, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(agg.data_bytes, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(agg.tuples_added, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(agg.longest_path_nodes, reader.ReadU32());
  CODB_ASSIGN_OR_RETURN(agg.per_rule, ReadRuleTraffic(reader));
  return agg;
}

// -- FederationReportPayload --------------------------------------------------

std::vector<uint8_t> FederationReportPayload::Serialize() const {
  WireWriter writer;
  writer.WriteString(super_name);
  writer.WriteU64(nodes_reporting);
  writer.WriteU32(static_cast<uint32_t>(aggregates.size()));
  for (const AggregatedUpdateStats& agg : aggregates) {
    agg.SerializeTo(writer);
  }
  metrics.SerializeTo(writer);
  return writer.Take();
}

Result<FederationReportPayload> FederationReportPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  FederationReportPayload out;
  CODB_ASSIGN_OR_RETURN(out.super_name, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.nodes_reporting, reader.ReadU64());
  // Every aggregate starts with its FlowId.
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(FlowId::kWireBytes));
  out.aggregates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CODB_ASSIGN_OR_RETURN(AggregatedUpdateStats agg,
                          AggregatedUpdateStats::DeserializeFrom(reader));
    out.aggregates.push_back(std::move(agg));
  }
  CODB_ASSIGN_OR_RETURN(out.metrics,
                        MetricsSnapshot::DeserializeFrom(reader));
  return out;
}

// -- SuperPeer ----------------------------------------------------------------

SuperPeer::SuperPeer(NetworkBase* network, std::string name)
    : network_(network), name_(std::move(name)) {}

std::unique_ptr<SuperPeer> SuperPeer::Create(NetworkBase* network,
                                             const std::string& name) {
  auto peer = std::unique_ptr<SuperPeer>(new SuperPeer(network, name));
  peer->id_ = network->Join(name, peer.get());
  return peer;
}

SuperPeer::~SuperPeer() { alive_->store(false); }

Status SuperPeer::LoadConfigText(const std::string& text) {
  CODB_ASSIGN_OR_RETURN(NetworkConfig config, NetworkConfig::Parse(text));
  return LoadConfig(std::move(config));
}

Status SuperPeer::LoadConfig(NetworkConfig config) {
  CODB_RETURN_IF_ERROR(config.Validate());
  config_ = std::make_unique<NetworkConfig>(std::move(config));
  return Status::Ok();
}

void SuperPeer::SetRegion(std::vector<std::string> node_names) {
  region_ = std::set<std::string>(node_names.begin(), node_names.end());
}

bool SuperPeer::InRegion(PeerId peer) const {
  if (!IsPresumedAlive(peer)) return false;
  if (region_.empty()) return true;
  return region_.count(network_->NameOf(peer)) > 0;
}

Status SuperPeer::BroadcastConfig() {
  if (config_ == nullptr) {
    return Status::FailedPrecondition("no configuration loaded");
  }
  std::lock_guard<std::mutex> lock(config_mutex_);
  // Bump exactly once, BEFORE any send: a partial failure must not leave
  // half the region on v and a retry re-bump the rest to v+2.
  ++config_version_;
  ++broadcast_generation_;
  config_graph_ = std::make_unique<LinkGraph>(LinkGraph::Build(*config_));
  config_history_.emplace(config_version_, *config_);
  while (config_history_.size() > kConfigHistoryLimit) {
    config_history_.erase(config_history_.begin());
  }
  broadcast_failures_.clear();

  size_t recipients = 0;
  for (PeerId peer : network_->AlivePeers()) {
    if (peer == id_) continue;
    if (!InRegion(peer)) continue;
    const std::string peer_name = network_->NameOf(peer);
    // Only config nodes take part in the distribution protocol; other
    // peers (federation partners, bystanders) have no slice to receive.
    if (config_->FindNode(peer_name) == nullptr) continue;
    Status sent = SendConfigTo(peer, peer_name);
    if (sent.ok()) {
      ++recipients;
    } else {
      // Best-effort: record the failure and keep going — the retransmit
      // sweep (or the peer's own kConfigFetch) heals the gap.
      broadcast_failures_.push_back(peer_name);
      CODB_LOG(kWarning) << name_ << ": config v" << config_version_
                         << " to " << peer_name
                         << " failed: " << sent.ToString()
                         << " (sweep will retry)";
    }
  }
  ScheduleSweep(broadcast_generation_, 0);
  CODB_LOG(kInfo) << name_ << ": distributed configuration v"
                  << config_version_ << " to " << recipients << " peers ("
                  << broadcast_failures_.size() << " failed sends)";
  return Status::Ok();
}

uint64_t SuperPeer::config_version() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return config_version_;
}

uint64_t SuperPeer::AckedVersionOf(const std::string& node_name) const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  auto it = acked_.find(node_name);
  return it == acked_.end() ? 0 : it->second.version;
}

std::vector<std::string> SuperPeer::LastBroadcastFailures() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return broadcast_failures_;
}

Status SuperPeer::SendConfigTo(PeerId peer, const std::string& peer_name) {
  if (!network_->HasPipe(id_, peer)) {
    CODB_RETURN_IF_ERROR(network_->OpenPipe(id_, peer, LinkProfile::Lan()));
  }
  auto acked = acked_.find(peer_name);
  if (acked != acked_.end() && acked->second.version > 0 &&
      acked->second.version < config_version_) {
    auto base = config_history_.find(acked->second.version);
    if (base != config_history_.end()) {
      NetworkConfig old_slice = base->second.ProjectFor(peer_name);
      // Only patch against a base the peer verifiably holds: if its
      // reported checksum diverged (e.g. a config applied out-of-band),
      // fall through to the full slice instead of ping-ponging fetches.
      if (old_slice.CanonicalChecksum() == acked->second.checksum) {
        ConfigSlice new_slice = MakeSlice(*config_, *config_graph_,
                                          peer_name);
        ConfigDeltaPayload delta;
        delta.patch = DiffSlices(old_slice, new_slice.config);
        delta.patch.from_version = acked->second.version;
        delta.patch.to_version = config_version_;
        delta.cycles = new_slice.cycles;
        return network_->Send(MakeMessage(
            id_, peer, MessageType::kConfigDelta, delta.Serialize()));
      }
    }
  }
  ConfigSlice slice = MakeSlice(*config_, *config_graph_, peer_name);
  ConfigSlicePayload payload;
  payload.version = config_version_;
  payload.config_text = slice.config.Serialize();
  payload.cycles = slice.cycles;
  payload.checksum = slice.checksum;
  return network_->Send(MakeMessage(id_, peer, MessageType::kConfigSlice,
                                    payload.Serialize()));
}

void SuperPeer::ScheduleSweep(uint64_t generation, int round) {
  if (round >= kMaxConfigRetransmitRounds) return;
  std::shared_ptr<std::atomic<bool>> alive = alive_;
  network_->ScheduleAfter(kConfigRetransmitPeriodUs,
                          [this, alive, generation, round] {
                            if (!alive->load()) return;
                            RetransmitSweep(generation, round);
                          });
}

void SuperPeer::RetransmitSweep(uint64_t generation, int round) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  if (generation != broadcast_generation_ || config_ == nullptr) return;
  bool any_laggard = false;
  for (PeerId peer : network_->AlivePeers()) {
    if (peer == id_) continue;
    if (!InRegion(peer)) continue;
    const std::string peer_name = network_->NameOf(peer);
    if (config_->FindNode(peer_name) == nullptr) continue;
    auto acked = acked_.find(peer_name);
    if (acked != acked_.end() && acked->second.version >= config_version_) {
      continue;
    }
    any_laggard = true;
    Status sent = SendConfigTo(peer, peer_name);
    if (!sent.ok()) {
      CODB_LOG(kWarning) << name_ << ": config retransmit to " << peer_name
                         << " failed: " << sent.ToString();
    }
  }
  if (!any_laggard) return;
  if (round + 1 >= kMaxConfigRetransmitRounds) {
    CODB_LOG(kWarning) << name_ << ": giving up config retransmits for v"
                       << config_version_ << " after "
                       << kMaxConfigRetransmitRounds << " sweeps";
    return;
  }
  ScheduleSweep(generation, round + 1);
}

void SuperPeer::HandleConfigAck(const Message& message) {
  Result<ConfigAckPayload> ack =
      ConfigAckPayload::Deserialize(message.payload);
  if (!ack.ok()) {
    CODB_LOG(kWarning) << name_ << ": bad config ack: "
                       << ack.status().ToString();
    return;
  }
  std::lock_guard<std::mutex> lock(config_mutex_);
  PeerConfigState& state = acked_[network_->NameOf(message.src)];
  if (ack.value().version >= state.version) {
    state.version = ack.value().version;
    state.checksum = ack.value().checksum;
  }
}

void SuperPeer::HandleConfigFetch(const Message& message) {
  Result<ConfigFetchPayload> fetch =
      ConfigFetchPayload::Deserialize(message.payload);
  if (!fetch.ok()) {
    CODB_LOG(kWarning) << name_ << ": bad config fetch: "
                       << fetch.status().ToString();
    return;
  }
  std::lock_guard<std::mutex> lock(config_mutex_);
  if (config_ == nullptr || config_version_ == 0) return;
  const std::string peer_name = network_->NameOf(message.src);
  if (config_->FindNode(peer_name) == nullptr) return;
  // The fetch states the peer's actual slice, which may be older than the
  // recorded ack (a restarted peer starts over at version 0): make it the
  // record, so the reply — and any later sweep — patches from the truth.
  PeerConfigState& state = acked_[peer_name];
  state.version = fetch.value().have_version;
  state.checksum = fetch.value().have_checksum;
  if (state.version >= config_version_) return;  // already current
  if (config_graph_ == nullptr) {
    config_graph_ = std::make_unique<LinkGraph>(LinkGraph::Build(*config_));
  }
  Status sent = SendConfigTo(message.src, peer_name);
  if (!sent.ok()) {
    CODB_LOG(kWarning) << name_ << ": config fetch reply to " << peer_name
                       << " failed: " << sent.ToString();
  }
}

Status SuperPeer::RequestStats() {
  ++stats_request_id_;
  StatsRequestPayload payload{stats_request_id_};
  // Count the recipients up front: on the threaded runtime the first
  // replies can arrive while later requests are still going out, and the
  // pending counter must never dip to zero early.
  std::vector<PeerId> recipients;
  for (PeerId peer : network_->AlivePeers()) {
    if (peer == id_) continue;
    if (!InRegion(peer)) continue;
    recipients.push_back(peer);
  }
  {
    std::lock_guard<std::mutex> lock(collected_mutex_);
    collected_.clear();
    collected_metrics_.clear();
    awaiting_.clear();
    for (PeerId peer : recipients) awaiting_.insert(peer.value);
  }
  pending_stats_.store(recipients.size());
  for (PeerId peer : recipients) {
    if (!network_->HasPipe(id_, peer)) {
      CODB_RETURN_IF_ERROR(
          network_->OpenPipe(id_, peer, LinkProfile::Lan()));
    }
    Status sent = network_->Send(MakeMessage(
        id_, peer, MessageType::kStatsRequest, payload.Serialize()));
    if (!sent.ok()) {
      bool awaited;
      {
        std::lock_guard<std::mutex> lock(collected_mutex_);
        awaited = awaiting_.erase(peer.value) > 0;
      }
      if (awaited) pending_stats_.fetch_sub(1);
    }
  }
  return Status::Ok();
}

void SuperPeer::EnableProfiling() {
  network_->AttachCostLedger(id_, &cost_);
}

Status SuperPeer::EnableMembership(const MembershipOptions& options) {
  if (membership_ != nullptr) {
    return Status::FailedPrecondition("super-peer '" + name_ +
                                      "' already runs a membership session");
  }
  membership_ = HeartbeatSession::Create(network_, id_, options,
                                         /*metrics=*/nullptr);
  membership_fanout_ = std::make_unique<MembershipFanout>(this);
  membership_->AddListener(membership_fanout_.get());
  membership_->Start();
  return Status::Ok();
}

bool SuperPeer::IsPresumedAlive(PeerId peer) const {
  return membership_ == nullptr || membership_->IsPresumedAlive(peer);
}

void SuperPeer::MembershipFanout::OnPeerEvicted(PeerId peer, int64_t at_us) {
  (void)at_us;
  super->OnPeerEvicted(peer);
}

void SuperPeer::OnPeerEvicted(PeerId peer) {
  bool awaited;
  {
    std::lock_guard<std::mutex> lock(collected_mutex_);
    awaited = awaiting_.erase(peer.value) > 0;
  }
  if (awaited) {
    // The in-flight collection will never hear from this peer; release
    // its slot so CollectionComplete() reflects the surviving topology.
    pending_stats_.fetch_sub(1);
  }
  CODB_LOG(kInfo) << name_ << ": evicted " << network_->NameOf(peer)
                  << (awaited ? " (released pending stats slot)" : "");
}

void SuperPeer::AddFederationPeer(PeerId super) {
  federation_peers_.insert(super.value);
}

Status SuperPeer::ShareWithFederation() {
  FederationReportPayload report;
  report.super_name = name_;
  {
    std::lock_guard<std::mutex> lock(collected_mutex_);
    report.nodes_reporting = collected_.size();
  }
  report.aggregates = Aggregate();
  report.metrics = MergedMetrics();
  std::vector<uint8_t> payload = report.Serialize();

  for (uint32_t raw : federation_peers_) {
    PeerId super(raw);
    if (!network_->IsAlive(super)) continue;
    if (!network_->HasPipe(id_, super)) {
      CODB_RETURN_IF_ERROR(
          network_->OpenPipe(id_, super, LinkProfile::Lan()));
    }
    CODB_RETURN_IF_ERROR(network_->Send(MakeMessage(
        id_, super, MessageType::kFederationReport, payload)));
  }
  return Status::Ok();
}

bool SuperPeer::FederationComplete() const {
  std::lock_guard<std::mutex> lock(collected_mutex_);
  for (uint32_t super : federation_peers_) {
    if (federation_reports_.count(super) == 0) return false;
  }
  return true;
}

void SuperPeer::HandleMessage(const Message& message) {
  switch (message.type) {
    case MessageType::kHeartbeat: {
      if (membership_ != nullptr) {
        membership_->HandleBeacon(message);
      } else {
        // Ack-reflex: even without a session of its own the super-peer
        // answers beacons, so membership-enabled nodes never suspect it.
        Result<Message> ack = MakeHeartbeatAck(message, id_,
                                               /*incarnation=*/1,
                                               network_->now_us());
        if (ack.ok()) {
          Status ignored = network_->Send(std::move(ack).value());
          (void)ignored;
        }
      }
      return;
    }
    case MessageType::kHeartbeatAck:
      if (membership_ != nullptr) membership_->HandleAck(message);
      return;
    case MessageType::kFederationReport: {
      Result<FederationReportPayload> report =
          FederationReportPayload::Deserialize(message.payload);
      if (!report.ok()) {
        CODB_LOG(kWarning) << name_ << ": bad federation report: "
                           << report.status().ToString();
        return;
      }
      std::lock_guard<std::mutex> lock(collected_mutex_);
      federation_reports_[message.src.value] = std::move(report.value());
      return;
    }
    case MessageType::kStatsReport: {
      Result<StatsBundle> bundle =
          StatisticsModule::DeserializeBundle(message.payload);
      if (!bundle.ok()) {
        CODB_LOG(kWarning) << name_ << ": bad stats report: "
                           << bundle.status().ToString();
        return;
      }
      bool awaited;
      {
        std::lock_guard<std::mutex> lock(collected_mutex_);
        const std::string node = network_->NameOf(message.src);
        collected_[node] = std::move(bundle.value().reports);
        if (!bundle.value().metrics.empty()) {
          collected_metrics_[node] = std::move(bundle.value().metrics);
        }
        // A report only releases a pending slot if this collection was
        // still waiting on the sender: duplicates and post-eviction
        // stragglers must not drive the counter below zero.
        awaited = awaiting_.erase(message.src.value) > 0;
      }
      if (awaited) {
        size_t pending = pending_stats_.load();
        while (pending > 0 &&
               !pending_stats_.compare_exchange_weak(pending, pending - 1)) {
        }
      }
      return;
    }
    case MessageType::kConfigAck:
      HandleConfigAck(message);
      return;
    case MessageType::kConfigFetch:
      HandleConfigFetch(message);
      return;
    case MessageType::kAdvertisement:
      // The super-peer is pipe-connected to everyone; nothing to learn.
      return;
    default:
      // The super-peer does not take part in updates or queries.
      CODB_LOG(kDebug) << name_ << ": ignoring "
                       << MessageTypeName(message.type);
      return;
  }
}

std::vector<AggregatedUpdateStats> SuperPeer::Aggregate() const {
  std::map<FlowId, AggregatedUpdateStats> by_update;
  std::map<FlowId, int64_t> min_start;
  std::map<FlowId, int64_t> max_complete;

  for (const auto& [node, reports] : collected_) {
    for (const UpdateReport& report : reports) {
      if (report.update.scope != FlowId::Scope::kUpdate) continue;
      AggregatedUpdateStats& agg = by_update[report.update];
      agg.update = report.update;
      ++agg.nodes_reporting;
      agg.total_wall_micros += report.wall_micros;
      agg.data_messages += report.data_messages_received;
      agg.data_bytes += report.data_bytes_received;
      agg.tuples_added += report.tuples_added;
      agg.longest_path_nodes =
          std::max(agg.longest_path_nodes, report.longest_path_nodes);
      for (const auto& [rule, traffic] : report.received_per_rule) {
        RuleTrafficStats& total = agg.per_rule[rule];
        total.messages += traffic.messages;
        total.tuples += traffic.tuples;
        total.bytes += traffic.bytes;
      }
      if (report.start_virtual_us >= 0) {
        auto [it, inserted] =
            min_start.emplace(report.update, report.start_virtual_us);
        if (!inserted) {
          it->second = std::min(it->second, report.start_virtual_us);
        }
      }
      if (report.complete_virtual_us >= 0) {
        auto [it, inserted] =
            max_complete.emplace(report.update, report.complete_virtual_us);
        if (!inserted) {
          it->second = std::max(it->second, report.complete_virtual_us);
        }
      }
    }
  }

  std::vector<AggregatedUpdateStats> out;
  for (auto& [update, agg] : by_update) {
    auto start = min_start.find(update);
    auto complete = max_complete.find(update);
    if (start != min_start.end()) {
      agg.min_start_virtual_us = start->second;
    }
    if (complete != max_complete.end()) {
      agg.max_complete_virtual_us = complete->second;
    }
    if (start != min_start.end() && complete != max_complete.end()) {
      agg.total_virtual_us = complete->second - start->second;
    }
    out.push_back(std::move(agg));
  }
  return out;
}

std::vector<AggregatedUpdateStats> SuperPeer::FederatedAggregate() const {
  std::vector<AggregatedUpdateStats> own = Aggregate();
  std::map<FlowId, AggregatedUpdateStats> by_update;
  for (AggregatedUpdateStats& agg : own) {
    by_update.emplace(agg.update, std::move(agg));
  }
  {
    std::lock_guard<std::mutex> lock(collected_mutex_);
    for (const auto& [super, report] : federation_reports_) {
      for (const AggregatedUpdateStats& agg : report.aggregates) {
        auto [it, inserted] = by_update.emplace(agg.update, agg);
        if (!inserted) it->second.Merge(agg);
      }
    }
  }
  std::vector<AggregatedUpdateStats> out;
  out.reserve(by_update.size());
  for (auto& [update, agg] : by_update) out.push_back(std::move(agg));
  return out;
}

MetricsSnapshot SuperPeer::FederatedMetrics() const {
  MetricsSnapshot merged = MergedMetrics();
  std::lock_guard<std::mutex> lock(collected_mutex_);
  for (const auto& [super, report] : federation_reports_) {
    merged.Merge(report.metrics);
  }
  return merged;
}

std::string SuperPeer::FinalReport() const {
  size_t nodes = collected_.size();
  size_t supers = 1;
  {
    std::lock_guard<std::mutex> lock(collected_mutex_);
    for (const auto& [super, report] : federation_reports_) {
      nodes += report.nodes_reporting;
      ++supers;
    }
  }
  std::string out =
      supers == 1
          ? StrFormat("===== final statistical report (%zu nodes) =====\n",
                      nodes)
          : StrFormat("===== final statistical report (%zu nodes, %zu "
                      "super-peers) =====\n",
                      nodes, supers);
  out += RenderAggregates(FederatedAggregate());
  MetricsSnapshot metrics = FederatedMetrics();
  metrics.Merge(cost_.CostSnapshot());
  if (!metrics.empty()) {
    out += StrFormat("metrics (%zu nodes):\n", nodes);
    out += metrics.Render();
  }
  std::string cost = RenderCostBreakdown(metrics);
  if (!cost.empty()) {
    out += "wire cost (bytes by class):\n";
    out += cost;
  }
  return out;
}

MetricsSnapshot SuperPeer::MergedMetrics() const {
  MetricsSnapshot merged;
  for (const auto& [node, snapshot] : collected_metrics_) {
    merged.Merge(snapshot);
  }
  return merged;
}

}  // namespace codb
