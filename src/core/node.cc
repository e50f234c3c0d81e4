#include "core/node.h"

#include "core/config_distribution.h"
#include "core/consistency.h"

#include "relation/printer.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace codb {

Node::Node(NetworkBase* network, std::string name)
    : network_(network), name_(std::move(name)) {}

Result<std::unique_ptr<Node>> Node::Create(NetworkBase* network,
                                           const std::string& name,
                                           DatabaseSchema schema,
                                           bool mediator, Options options) {
  auto node = std::unique_ptr<Node>(new Node(network, name));
  node->options_ = options;

  if (mediator) {
    CODB_ASSIGN_OR_RETURN(node->wrapper_,
                          Wrapper::ForMediator(std::move(schema)));
  } else {
    node->ldb_ = std::make_unique<Database>();
    for (const RelationSchema& rel : schema.relations()) {
      CODB_RETURN_IF_ERROR(node->ldb_->CreateRelation(rel));
    }
    CODB_ASSIGN_OR_RETURN(
        node->wrapper_,
        Wrapper::ForDatabase(node->ldb_.get(), std::move(schema)));
  }

  node->id_ = network->Join(name, node.get());
  node->minter_ = std::make_unique<NullMinter>(node->id_.value);
  node->discovery_ =
      std::make_unique<DiscoveryService>(network, node->id_);
  node->AnnounceSelf();
  return node;
}

void Node::AnnounceSelf() {
  if (options_.quiet_discovery) return;
  discovery_->Announce(name_, wrapper_->dbs().ExportedRelationNames());
}

Status Node::EnableMembership(const MembershipOptions& options) {
  if (membership_ != nullptr) {
    return Status::FailedPrecondition("node '" + name_ +
                                      "' already runs a membership session");
  }
  membership_ = HeartbeatSession::Create(network_, id_, options,
                                         &statistics_.metrics());
  membership_fanout_ = std::make_unique<MembershipFanout>(this);
  membership_->AddListener(membership_fanout_.get());
  membership_->Start();
  return Status::Ok();
}

void Node::EnableProfiling() {
  network_->AttachCostLedger(id_, &statistics_.cost());
}

bool Node::IsPresumedAlive(PeerId peer) const {
  // Deliberately no mutex_: called from the managers (which run under
  // mutex_) and membership_ is immutable after EnableMembership; the
  // session serializes internally.
  return membership_ == nullptr || membership_->IsPresumedAlive(peer);
}

void Node::MembershipFanout::OnPeerEvicted(PeerId peer, int64_t at_us) {
  (void)at_us;
  node->OnPeerEvicted(peer);
}

void Node::OnPeerEvicted(PeerId peer) {
  // Active liveness replaces the passive pipe-loss path: an evicted peer
  // gets exactly the cleanup a snapped pipe would have triggered —
  // ReliableSender drops its retransmission timers immediately (instead
  // of burning the full retry-cap backoff), the termination detector
  // cancels its deficits, and closing links re-evaluate.
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  CODB_LOG(kInfo) << name_ << ": evicting unresponsive peer "
                  << network_->NameOf(peer);
  if (update_manager_ != nullptr) update_manager_->HandlePipeClosed(peer);
  if (query_manager_ != nullptr) query_manager_->HandlePipeClosed(peer);
}

Status Node::ApplyConfig(const NetworkConfig& config, uint64_t version) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return ApplyConfigLocked(config, version, /*cyclic_rules=*/nullptr,
                           /*has_any_cycle=*/false);
}

uint64_t Node::config_version() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return config_version_;
}

Status Node::ApplyConfigLocked(const NetworkConfig& config,
                               uint64_t version,
                               const std::set<std::string>* cyclic_rules,
                               bool has_any_cycle) {
  if (config_ != nullptr && version <= config_version_) {
    return Status::Ok();  // stale broadcast
  }
  CODB_RETURN_IF_ERROR(config.Validate());

  const NodeDecl* self_decl = config.FindNode(name_);
  if (self_decl == nullptr) {
    return Status::NotFound("node '" + name_ +
                            "' is not part of this configuration");
  }
  // The declared schema must match the exported one: the config cannot
  // change what the LDB can provide.
  for (const RelationSchema& rel : self_decl->relations) {
    const RelationSchema* exported =
        wrapper_->dbs().exported().FindRelation(rel.name());
    if (exported == nullptr || !(*exported == rel)) {
      return Status::InvalidArgument(
          "config schema for relation '" + rel.name() +
          "' does not match node '" + name_ + "'");
    }
  }

  config_ = std::make_unique<NetworkConfig>(config);
  config_version_ = version;
  config_checksum_ = config_->CanonicalChecksum();
  if (cyclic_rules != nullptr) {
    // Projected slice: cycle answers come from the super-peer's closure,
    // computed on the full graph the slice was cut from.
    link_graph_ = std::make_unique<LinkGraph>(
        LinkGraph::BuildProjected(*config_, *cyclic_rules, has_any_cycle));
  } else {
    link_graph_ = std::make_unique<LinkGraph>(LinkGraph::Build(*config_));
  }

  // "it drops 'old' rules and pipes, and creates new ones, where
  // necessary": reconcile the rule-pipe set with the new acquaintances.
  // A pipe that cannot be opened yet (open failure, or the acquaintance
  // not on the network) is remembered and retried on the next discovery
  // or membership event instead of being silently forgotten.
  std::set<uint32_t> desired;
  pending_pipe_retries_.clear();
  for (const std::string& other : config_->AcquaintancesOf(name_)) {
    Result<PeerId> peer = network_->FindByName(other);
    if (!peer.ok()) {
      pending_pipe_retries_.insert(other);
      continue;  // acquaintance not on the network yet
    }
    if (!network_->HasPipe(id_, peer.value())) {
      Status opened =
          network_->OpenPipe(id_, peer.value(), options_.link_profile);
      if (!opened.ok()) {
        statistics_.metrics().GetCounter("config.pipe_open_failures")->Add();
        pending_pipe_retries_.insert(other);
        CODB_LOG(kWarning) << name_ << ": pipe to " << other
                           << " failed to open: " << opened.ToString()
                           << " (will retry)";
        continue;
      }
    }
    desired.insert(peer.value().value);
  }
  has_pending_pipe_retries_.store(!pending_pipe_retries_.empty());
  for (uint32_t stale : rule_pipes_) {
    if (desired.find(stale) == desired.end() &&
        network_->HasPipe(id_, PeerId(stale))) {
      network_->ClosePipe(id_, PeerId(stale));
    }
  }
  rule_pipes_ = std::move(desired);

  // Rebuild the DBM against the new configuration. In-flight updates and
  // queries of the previous configuration are abandoned (the initiators'
  // termination detectors see the dropped peers as lost).
  FlowEngine::Context context;
  context.network = network_;
  context.self = id_;
  context.node_name = name_;
  context.wrapper = wrapper_.get();
  context.config = config_.get();
  context.link_graph = link_graph_.get();
  context.stats = &statistics_;
  context.minter = minter_.get();
  context.reliability = options_.reliability;
  update_manager_ = std::make_unique<UpdateManager>(
      context, &update_seq_, export_memory_, options_.update);
  query_manager_ = std::make_unique<QueryManager>(context, &query_seq_);
  CODB_RETURN_IF_ERROR(update_manager_->Init());
  CODB_RETURN_IF_ERROR(query_manager_->Init());
  // The node outlives both managers, so capturing `this` is safe; the
  // predicate makes evicted peers invisible to new flows immediately.
  auto presumed_alive = [this](PeerId peer) {
    return IsPresumedAlive(peer);
  };
  update_manager_->SetPresumedAlive(presumed_alive);
  query_manager_->SetPresumedAlive(presumed_alive);

  AnnounceSelf();
  CODB_LOG(kInfo) << name_ << ": applied configuration v" << version;
  return Status::Ok();
}

void Node::RetryPendingPipes() {
  if (config_ == nullptr || pending_pipe_retries_.empty()) return;
  for (auto it = pending_pipe_retries_.begin();
       it != pending_pipe_retries_.end();) {
    Result<PeerId> peer = network_->FindByName(*it);
    if (!peer.ok()) {
      ++it;
      continue;
    }
    if (!network_->HasPipe(id_, peer.value())) {
      Status opened =
          network_->OpenPipe(id_, peer.value(), options_.link_profile);
      if (!opened.ok()) {
        statistics_.metrics().GetCounter("config.pipe_open_failures")->Add();
        ++it;
        continue;
      }
    }
    CODB_LOG(kInfo) << name_ << ": opened deferred pipe to " << *it;
    rule_pipes_.insert(peer.value().value);
    it = pending_pipe_retries_.erase(it);
  }
  has_pending_pipe_retries_.store(!pending_pipe_retries_.empty());
}

void Node::SendConfigAck(PeerId to) {
  ConfigAckPayload ack;
  ack.version = config_version_;
  ack.checksum = config_checksum_;
  Status sent = network_->Send(
      MakeMessage(id_, to, MessageType::kConfigAck, ack.Serialize()));
  if (!sent.ok()) {
    CODB_LOG(kWarning) << name_ << ": config ack failed: "
                       << sent.ToString();
  }
}

void Node::SendConfigFetch(PeerId to) {
  ConfigFetchPayload fetch;
  fetch.have_version = config_version_;
  fetch.have_checksum = config_checksum_;
  Status sent = network_->Send(
      MakeMessage(id_, to, MessageType::kConfigFetch, fetch.Serialize()));
  if (!sent.ok()) {
    CODB_LOG(kWarning) << name_ << ": config fetch failed: "
                       << sent.ToString();
  }
}

void Node::HandleConfigSlice(const Message& message) {
  Result<ConfigSlicePayload> payload =
      ConfigSlicePayload::Deserialize(message.payload);
  if (!payload.ok()) {
    CODB_LOG(kWarning) << name_ << ": bad config slice: "
                       << payload.status().ToString();
    return;
  }
  if (config_ != nullptr && payload.value().version <= config_version_) {
    SendConfigAck(message.src);  // stale: restate what we hold
    return;
  }
  Result<NetworkConfig> config =
      NetworkConfig::Parse(payload.value().config_text);
  if (!config.ok()) {
    CODB_LOG(kError) << name_ << ": config slice did not parse: "
                     << config.status().ToString();
    return;
  }
  if (config.value().CanonicalChecksum() != payload.value().checksum) {
    statistics_.metrics().GetCounter("config.checksum_mismatches")->Add();
    CODB_LOG(kWarning) << name_
                       << ": config slice checksum mismatch; refetching";
    SendConfigFetch(message.src);
    return;
  }
  std::set<std::string> cyclic(payload.value().cycles.cyclic_rules.begin(),
                               payload.value().cycles.cyclic_rules.end());
  Status applied =
      ApplyConfigLocked(config.value(), payload.value().version, &cyclic,
                        payload.value().cycles.has_any_cycle);
  if (!applied.ok()) {
    CODB_LOG(kError) << name_ << ": config slice rejected: "
                     << applied.ToString();
    return;
  }
  statistics_.metrics().GetCounter("config.slices_applied")->Add();
  SendConfigAck(message.src);
}

void Node::HandleConfigDelta(const Message& message) {
  Result<ConfigDeltaPayload> payload =
      ConfigDeltaPayload::Deserialize(message.payload);
  if (!payload.ok()) {
    CODB_LOG(kWarning) << name_ << ": bad config delta: "
                       << payload.status().ToString();
    return;
  }
  const ConfigPatch& patch = payload.value().patch;
  if (config_ != nullptr && patch.to_version <= config_version_) {
    SendConfigAck(message.src);  // stale: restate what we hold
    return;
  }
  if (config_ == nullptr || patch.from_version != config_version_ ||
      patch.pre_checksum != config_checksum_) {
    // Version gap: a broadcast was lost on the way here (or this node
    // restarted and starts over at v0). Ask the sender for catch-up from
    // the state we actually hold.
    statistics_.metrics().GetCounter("config.gap_fetches")->Add();
    CODB_LOG(kInfo) << name_ << ": config delta v" << patch.from_version
                    << "->" << patch.to_version << " does not apply to v"
                    << config_version_ << "; fetching";
    SendConfigFetch(message.src);
    return;
  }
  Result<NetworkConfig> patched = ApplyPatch(*config_, patch);
  if (!patched.ok()) {
    // Checksum mismatch (or malformed patch): the local config is NOT
    // touched — ApplyPatch is pure — so fall back to a fetch.
    statistics_.metrics().GetCounter("config.checksum_mismatches")->Add();
    CODB_LOG(kWarning) << name_ << ": config delta did not apply: "
                       << patched.status().ToString() << "; refetching";
    SendConfigFetch(message.src);
    return;
  }
  std::set<std::string> cyclic(payload.value().cycles.cyclic_rules.begin(),
                               payload.value().cycles.cyclic_rules.end());
  Status applied =
      ApplyConfigLocked(patched.value(), patch.to_version, &cyclic,
                        payload.value().cycles.has_any_cycle);
  if (!applied.ok()) {
    CODB_LOG(kError) << name_ << ": patched config rejected: "
                     << applied.ToString();
    return;
  }
  statistics_.metrics().GetCounter("config.deltas_applied")->Add();
  SendConfigAck(message.src);
}

Result<FlowId> Node::StartGlobalUpdate(
    UpdateManager::CompletionFn on_complete) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (update_manager_ == nullptr) {
    return Status::FailedPrecondition(
        "node '" + name_ + "' has no configuration; broadcast one first");
  }
  return update_manager_->StartUpdate(/*refresh=*/false,
                                      std::move(on_complete));
}

Result<FlowId> Node::StartGlobalRefresh(
    UpdateManager::CompletionFn on_complete) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (update_manager_ == nullptr) {
    return Status::FailedPrecondition(
        "node '" + name_ + "' has no configuration; broadcast one first");
  }
  return update_manager_->StartUpdate(/*refresh=*/true,
                                      std::move(on_complete));
}

Status Node::InsertLocal(const std::string& relation,
                         const std::vector<Tuple>& rows) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return wrapper_->InsertLocal(relation, rows);
}

Result<FlowId> Node::StartIncrementalUpdate(
    UpdateManager::CompletionFn on_complete) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (update_manager_ == nullptr) {
    return Status::FailedPrecondition(
        "node '" + name_ + "' has no configuration; broadcast one first");
  }
  return update_manager_->StartIncrementalUpdate(
      wrapper_->TakePendingDelta(), std::move(on_complete));
}

Result<FlowId> Node::StartQuery(const ConjunctiveQuery& query,
                                QueryManager::ProgressFn on_progress) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (query_manager_ == nullptr) {
    return Status::FailedPrecondition(
        "node '" + name_ + "' has no configuration; broadcast one first");
  }
  return query_manager_->StartQuery(query, std::move(on_progress));
}

bool Node::QueryDone(const FlowId& query) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return query_manager_ != nullptr && query_manager_->IsDone(query);
}

Result<std::vector<Tuple>> Node::QueryAnswers(const FlowId& query) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (query_manager_ == nullptr) {
    return Status::FailedPrecondition("node has no configuration");
  }
  return query_manager_->Answers(query);
}

Result<std::vector<Tuple>> Node::CertainQueryAnswers(
    const FlowId& query) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (query_manager_ == nullptr) {
    return Status::FailedPrecondition("node has no configuration");
  }
  return query_manager_->CertainAnswers(query);
}

Result<std::vector<Tuple>> Node::LocalQuery(
    const ConjunctiveQuery& query) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return wrapper_->EvaluateQuery(query);
}

Status Node::EnableDurability(const StorageOptions& options) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (is_mediator()) {
    return Status::FailedPrecondition(
        "mediator '" + name_ + "' holds only transient relay data; "
        "durability does not apply");
  }
  if (durable_ != nullptr) {
    return Status::FailedPrecondition(
        "node '" + name_ + "' already has durable storage at " +
        durable_->directory());
  }
  CODB_ASSIGN_OR_RETURN(
      durable_,
      DurableStorage::Open(options, ldb_.get(),
                           &statistics_.durability()));
  wrapper_->AttachJournal(durable_.get());
  CODB_LOG(kInfo) << name_ << ": durable storage at " << options.directory
                  << " (recovered " << durable_->recovery().checkpoint_tuples
                  << " checkpoint tuples, "
                  << durable_->recovery().wal_records_replayed
                  << " WAL records)";
  return Status::Ok();
}

std::vector<std::string> Node::ConsistencyViolations() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (config_ == nullptr) return {};
  const NodeDecl* decl = config_->FindNode(name_);
  if (decl == nullptr) return {};
  return FindKeyViolations(wrapper_->storage(), decl->keys);
}

void Node::HandleMessage(const Message& message) {
  // Heartbeat traffic routes to the session BEFORE taking mutex_: the
  // session's eviction callbacks acquire mutex_ while holding its own
  // lock, so the node must never enter the session while holding mutex_
  // (lock order is session -> node, always).
  switch (message.type) {
    case MessageType::kHeartbeat: {
      if (membership_ != nullptr) {
        membership_->HandleBeacon(message);
      } else {
        // Ack-reflex: a peer without a session still answers beacons so
        // membership-enabled peers never falsely suspect it.
        Result<Message> ack =
            MakeHeartbeatAck(message, id_, /*incarnation=*/1,
                             network_->now_us());
        if (ack.ok()) network_->Send(std::move(ack).value());
      }
      // Liveness traffic doubles as the deferred-pipe retry tick: a peer
      // beaconing at us is clearly joinable now.
      if (has_pending_pipe_retries_.load()) {
        std::lock_guard<std::recursive_mutex> lock(mutex_);
        RetryPendingPipes();
      }
      return;
    }
    case MessageType::kHeartbeatAck:
      if (membership_ != nullptr) membership_->HandleAck(message);
      return;
    default:
      break;
  }
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  switch (message.type) {
    case MessageType::kAdvertisement:
      discovery_->HandleAdvertisement(message);
      // A newly announced peer may be a pending acquaintance.
      RetryPendingPipes();
      return;

    case MessageType::kConfigSlice:
      HandleConfigSlice(message);
      return;

    case MessageType::kConfigDelta:
      HandleConfigDelta(message);
      return;

    case MessageType::kConfigFetch:
    case MessageType::kConfigAck:
      // Super-peer -> node protocol only; a node never serves these.
      CODB_LOG(kWarning) << name_ << ": unexpected "
                         << MessageTypeName(message.type) << " from "
                         << message.src.ToString();
      return;

    case MessageType::kUpdateRequest:
    case MessageType::kUpdateData:
    case MessageType::kLinkClosed:
    case MessageType::kUpdateAck:
    case MessageType::kUpdateComplete:
    case MessageType::kQueryRequest:
    case MessageType::kQueryResult:
    case MessageType::kQueryDone:
    case MessageType::kDeliveryAck:
      DispatchFlowMessage(message);
      return;

    case MessageType::kStatsRequest:
      network_->Send(MakeMessage(id_, message.src, MessageType::kStatsReport,
                                 statistics_.SerializeAll()));
      return;

    case MessageType::kStatsReport:
      CODB_LOG(kWarning) << name_ << ": unexpected stats report from "
                         << message.src.ToString();
      return;

    case MessageType::kHeartbeat:
    case MessageType::kHeartbeatAck:
      return;  // handled above, before the lock

    case MessageType::kFederationReport:
      CODB_LOG(kWarning) << name_ << ": unexpected federation report from "
                         << message.src.ToString();
      return;
  }
}

void Node::DispatchFlowMessage(const Message& message) {
  // Every flow-scoped payload starts with its FlowId; the scope picks the
  // engine, which reuses the id for the whole envelope.
  Result<FlowId> peeked = PeekFlowId(message.payload);
  if (!peeked.ok()) {
    CODB_LOG(kWarning) << name_ << ": bad " << MessageTypeName(message.type)
                       << ": " << peeked.status().ToString();
    return;
  }
  const FlowId flow = peeked.value();
  FlowEngine* engine = flow.scope == FlowId::Scope::kUpdate
                           ? static_cast<FlowEngine*>(update_manager_.get())
                           : query_manager_.get();
  if (engine != nullptr) engine->HandleMessage(flow, message);
}

void Node::HandlePipeClosed(PeerId other) {
  // Orderly pipe loss is departure, not failure: the membership session
  // just stops tracking the peer. Called before mutex_ for the same
  // session->node lock-order reason as the heartbeat routing.
  if (membership_ != nullptr) membership_->Forget(other);
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (update_manager_ != nullptr) update_manager_->HandlePipeClosed(other);
  if (query_manager_ != nullptr) query_manager_->HandlePipeClosed(other);
}

std::string Node::Report() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::string out = "=== node " + name_ + " (" + id_.ToString() + ")" +
                    (is_mediator() ? " [mediator]" : "") + " ===\n";
  out += "exported schema:\n";
  for (const RelationSchema& rel : wrapper_->dbs().exported().relations()) {
    out += "  " + rel.ToString() + "\n";
  }
  out += StrFormat("stored tuples: %zu\n", wrapper_->StoredTuples());
  if (durable_ != nullptr) {
    out += "durable storage: " + durable_->directory() +
           StrFormat(" (next lsn %llu)\n",
                     static_cast<unsigned long long>(durable_->next_lsn()));
  }
  out += "pipes:";
  for (PeerId neighbor : network_->Neighbors(id_)) {
    out += " ";
    out += network_->NameOf(neighbor);
  }
  out += "\n";
  if (update_manager_ != nullptr) {
    out += "outgoing links (we import):";
    for (const std::string& rule : update_manager_->OutgoingLinkIds()) {
      out += " " + rule;
    }
    out += "\nincoming links (we export):";
    for (const std::string& rule : update_manager_->IncomingLinkIds()) {
      out += " " + rule;
    }
    out += "\n";
  }
  for (const auto& [flow, report] : statistics_.reports()) {
    if (flow.scope == FlowId::Scope::kUpdate) out += report.Render();
  }
  return out;
}

std::string Node::DiscoveryView() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::set<uint32_t> acquainted;
  std::string out = "--- discovery view of " + name_ + " ---\n";
  out += "acquaintances (pipes):";
  for (PeerId neighbor : network_->Neighbors(id_)) {
    acquainted.insert(neighbor.value);
    out += " ";
    out += network_->NameOf(neighbor);
  }
  out += "\ndiscovered (no pipe):";
  for (const PeerAdvertisement& ad : discovery_->Known()) {
    if (acquainted.find(ad.peer.value) == acquainted.end()) {
      out += " " + ad.name;
    }
  }
  out += "\n";
  return out;
}

}  // namespace codb
