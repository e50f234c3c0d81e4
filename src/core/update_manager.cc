#include "core/update_manager.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace codb {

UpdateManager::UpdateManager(const Context& context, uint64_t* update_seq,
                             ExportMemory& export_memory, Options options)
    : FlowEngine(FlowId::Scope::kUpdate, context),
      options_(options),
      m_requests_in_(stats_->metrics().GetCounter("update.requests_in")),
      m_data_in_(stats_->metrics().GetCounter("update.data_in")),
      m_data_out_(stats_->metrics().GetCounter("update.data_out")),
      m_link_closed_in_(
          stats_->metrics().GetCounter("update.link_closed_in")),
      m_acks_in_(stats_->metrics().GetCounter("update.acks_in")),
      m_completes_in_(stats_->metrics().GetCounter("update.completes_in")),
      m_rule_evals_(stats_->metrics().GetCounter("update.rule_evals")),
      m_tuples_shipped_(
          stats_->metrics().GetCounter("update.tuples_shipped")),
      m_incremental_(stats_->metrics().GetCounter("update.incremental")),
      m_delta_rows_(stats_->metrics().GetCounter("update.delta_rows")),
      m_eval_rows_(stats_->metrics().GetCounter("update.eval_rows")),
      m_memory_suppressed_(
          stats_->metrics().GetCounter("update.memory_suppressed")),
      m_handler_us_(stats_->metrics().GetHistogram("update.handler_us")),
      m_data_tuples_(stats_->metrics().GetHistogram("update.data_tuples")),
      update_seq_(update_seq),
      export_memory_(export_memory) {}

Status UpdateManager::Init() {
  CODB_RETURN_IF_ERROR(FlowEngine::Init());
  // A changed rule definition invalidates its recorded exports; the
  // fingerprint is the full rule text.
  std::map<std::string, std::string> fingerprints;
  for (const auto& [rule_id, rule] : compiled_incoming_) {
    fingerprints.emplace(rule_id, rule.ToString());
  }
  export_memory_.SyncRules(fingerprints);
  if (options_.skip_subsumed) {
    for (const auto& [subsumed, subsuming] :
         config_->FindSubsumedRules()) {
      if (compiled_incoming_.find(subsumed) != compiled_incoming_.end()) {
        CODB_LOG(kInfo) << node_name_ << ": rule " << subsumed
                        << " subsumed by " << subsuming
                        << "; skipping its evaluation";
        subsumed_incoming_.insert(subsumed);
      }
    }
  }
  return Status::Ok();
}

UpdateManager::UpdateState& UpdateManager::StateOf(const FlowId& update) {
  auto [it, inserted] = updates_.try_emplace(update);
  if (inserted) {
    it->second.epoch = export_memory_.NewEpoch();
    for (const CoordinationRule* rule : config_->IncomingOf(node_name_)) {
      it->second.incoming.emplace(rule->id(), IncomingLinkState());
    }
    for (const CoordinationRule* rule : config_->OutgoingOf(node_name_)) {
      it->second.outgoing.emplace(rule->id(), OutgoingLinkState());
    }
  }
  return it->second;
}

FlowId UpdateManager::StartUpdate(bool refresh, CompletionFn on_complete) {
  return StartUpdateInternal(refresh, /*incremental=*/false,
                             /*delta=*/nullptr, std::move(on_complete));
}

FlowId UpdateManager::StartIncrementalUpdate(DeltaMap delta,
                                             CompletionFn on_complete) {
  return StartUpdateInternal(/*refresh=*/false, /*incremental=*/true,
                             &delta, std::move(on_complete));
}

FlowId UpdateManager::StartUpdateInternal(bool refresh, bool incremental,
                                          const DeltaMap* delta,
                                          CompletionFn on_complete) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FlowId update{FlowId::Scope::kUpdate, self_.value, (*update_seq_)++};
  if (incremental) {
    m_incremental_->Add();
    size_t delta_rows = 0;
    if (delta != nullptr) {
      for (const auto& [relation, rows] : *delta) delta_rows += rows.size();
    }
    m_delta_rows_->Add(delta_rows);
  }
  if (on_complete != nullptr) {
    completions_[update] = std::move(on_complete);
  }
  // Root span of the whole diffusing computation: every other span of this
  // flow descends from it via message-hop edges.
  ScopedSpan span(Tracer::Global().BeginSpan(self_.value, "update.start",
                                             TraceTag(update)));
  RunRoot(update, [&] {
    Join(update, /*via=*/PeerId(), refresh, incremental, delta);
  });
  return update;
}

void UpdateManager::FinishRoot(const FlowId& update) {
  // An aborted update still floods completion so cyclic links close and
  // per-flow state is dropped network-wide; the report carries the flag.
  Complete(update, /*via=*/PeerId());
}

void UpdateManager::Join(const FlowId& update, PeerId via, bool refresh,
                         bool incremental, const DeltaMap* delta) {
  UpdateState& state = StateOf(update);
  if (state.joined) return;
  state.joined = true;
  state.incremental = incremental;

  UpdateReport& report = stats_->ReportFor(update);
  report.start_virtual_us = network_->now_us();

  // Local inconsistency does not propagate: an inconsistent node keeps
  // its links running (termination is unaffected) but ships no data.
  state.exports_suppressed = LocallyInconsistent();
  if (state.exports_suppressed) {
    CODB_LOG(kWarning) << node_name_
                       << ": locally inconsistent; exports suppressed for "
                       << update.ToString();
  }

  // A refresh drops previously imported data before re-deriving it; what
  // the sources no longer provide simply never returns. It also restates
  // every export from scratch, so the export memory starts over.
  if (refresh) {
    wrapper_->DropImported();
    export_memory_.Reset();
  }

  // "These acquaintances ... propagate the global update to their
  // acquaintances" — flood the request, skipping where it came from. An
  // incremental flow floods nothing: its data engages the peers it
  // reaches.
  if (!incremental) {
    UpdateRequestPayload request{update, refresh};
    for (PeerId neighbor : Acquaintances()) {
      if (neighbor == via) continue;
      SendBasic(update, neighbor, MessageType::kUpdateRequest,
                request.Serialize());
    }
  }

  // Initial link evaluations. Full/refresh updates evaluate every
  // incoming link over the whole local store; an incremental update fires
  // only at the initiator (delta != null), seeded by its delta batch —
  // every other node contributes nothing until deltas reach it.
  for (auto& [rule_id, link] : state.incoming) {
    if (!incremental) {
      FireInitial(update, state, rule_id, /*delta=*/nullptr);
    } else if (delta != nullptr && !delta->empty()) {
      FireInitial(update, state, rule_id, delta);
    }
    link.initial_fired = true;
  }
  CheckClosing(update, state);
}

void UpdateManager::FireInitial(const FlowId& update, UpdateState& state,
                                const std::string& rule_id,
                                const DeltaMap* delta) {
  if (state.exports_suppressed) return;
  if (subsumed_incoming_.find(rule_id) != subsumed_incoming_.end()) return;
  const CoordinationRule& rule = compiled_incoming_.at(rule_id);
  m_rule_evals_->Add();
  ScopedSpan span(
      Tracer::Global().BeginSpanHere("update.rule_eval", TraceTag(update)));
  Tracer::Global().AddArg(span.id(), "rule", rule_id);
  std::vector<Tuple> frontiers;
  // Work accounting for the semi-naive comparison (E17): a full eval
  // reads every body relation end to end, a delta eval the delta.
  uint64_t input_rows = 0;
  if (delta == nullptr) {
    for (const std::string& relation : rule.BodyRelations()) {
      const Relation* body = wrapper_->storage().Find(relation);
      if (body != nullptr) input_rows += body->size();
    }
    frontiers = rule.EvaluateFrontier(wrapper_->storage());
  } else {
    frontiers =
        rule.EvaluateFrontierDeltas(wrapper_->storage(), *delta, &input_rows);
  }
  m_eval_rows_->Add(input_rows);
  span.End();
  ShipFrontiers(update, state, rule_id, std::move(frontiers),
                /*path=*/{self_.value});
}

void UpdateManager::ShipFrontiers(const FlowId& update, UpdateState& state,
                                  const std::string& rule_id,
                                  std::vector<Tuple> frontiers,
                                  const std::vector<uint32_t>& path) {
  const CoordinationRule& rule = compiled_incoming_.at(rule_id);

  ScopedSpan span(
      Tracer::Global().BeginSpanHere("update.ship", TraceTag(update)));
  Tracer::Global().AddArg(span.id(), "rule", rule_id);

  if (frontiers.empty()) return;
  Result<PeerId> importer = ResolvePeer(rule.importer());
  if (!importer.ok()) return;  // importer gone: nothing to ship or record

  // The export memory (DESIGN.md §14) drops what this flow already
  // shipped and, for an incremental flow, what earlier flows shipped.
  // Disabled with dedup_sent (ablation E6).
  if (options_.dedup_sent) {
    m_memory_suppressed_->Add(export_memory_.Admit(
        rule_id, state.epoch, state.incremental, frontiers));
    if (frontiers.empty()) return;
  }

  std::vector<HeadTuple> tuples;
  tuples.reserve(frontiers.size());
  for (const Tuple& frontier : frontiers) {
    rule.InstantiateHeadInto(frontier, *minter_, tuples);
  }

  // Split into batches of max_batch_tuples (0 = everything in one
  // message). Consecutive batches travel the same FIFO pipe, so the
  // importer sees them in order.
  size_t total = tuples.size();
  size_t batch_size =
      options_.max_batch_tuples > 0 ? options_.max_batch_tuples : total;
  UpdateReport& report = stats_->ReportFor(update);
  for (size_t begin = 0; begin < total; begin += batch_size) {
    size_t end = std::min(begin + batch_size, total);
    UpdateDataPayload data;
    data.update = update;
    data.incremental = state.incremental;
    data.rule_id = rule_id;
    data.path = path;
    if (begin == 0 && end == total) {
      // Single batch (the default, max_batch_tuples == 0): hand the whole
      // vector over instead of copying it.
      data.tuples = std::move(tuples);
    } else {
      data.tuples.assign(tuples.begin() + static_cast<long>(begin),
                         tuples.begin() + static_cast<long>(end));
    }

    std::vector<uint8_t> payload = data.Serialize();
    size_t bytes = payload.size() + Message::kHeaderBytes;
    if (!SendBasic(update, importer.value(), MessageType::kUpdateData,
                   std::move(payload))
             .ok()) {
      // Conservative un-record of the whole batch: the frontiers that DID
      // ship may be re-derived and re-shipped later, which the importer's
      // set semantics absorbs; a frontier silently recorded as exported
      // but never delivered would be missed forever.
      if (options_.dedup_sent) export_memory_.Forget(rule_id, frontiers);
      return;
    }
    state.shipped_to.insert(importer.value());
    m_data_out_->Add();
    m_tuples_shipped_->Add(data.tuples.size());

    ++report.data_messages_sent;
    report.data_bytes_sent += bytes;
    RuleTrafficStats& traffic = report.sent_per_rule[rule_id];
    ++traffic.messages;
    traffic.tuples += data.tuples.size();
    traffic.bytes += bytes;
  }
  report.result_destinations.insert(importer.value().value);
}

void UpdateManager::Dispatch(const FlowId& /*update*/,
                             const Message& message) {
  // Each handler reads the update id from its full payload.
  switch (message.type) {
    case MessageType::kUpdateRequest:
      OnRequest(message);
      break;
    case MessageType::kUpdateData:
      OnData(message);
      break;
    case MessageType::kLinkClosed:
      OnLinkClosed(message);
      break;
    case MessageType::kUpdateComplete:
      OnComplete(message);
      break;
    default:
      CODB_LOG(kWarning) << node_name_ << ": update manager got unexpected "
                         << MessageTypeName(message.type);
      break;
  }
}

void UpdateManager::OnAck(const FlowId& update, PeerId from) {
  m_acks_in_->Add();
  ScopedSpan span(
      Tracer::Global().BeginSpanHere("update.ack", TraceTag(update)));
  FlowEngine::OnAck(update, from);
}

void UpdateManager::OnHandled(const FlowId& update, MessageType type,
                              int64_t wall_us) {
  m_handler_us_->Record(wall_us);
  // Wall time is attributed per update only for data messages, the
  // dominant cost; handlers record anything finer into the report
  // directly.
  if (type == MessageType::kUpdateData) {
    stats_->ReportFor(update).wall_micros += static_cast<double>(wall_us);
  }
}

void UpdateManager::OnRequest(const Message& message) {
  Result<UpdateRequestPayload> parsed =
      UpdateRequestPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad update request: "
                       << parsed.status().ToString();
    return;
  }
  const FlowId update = parsed.value().update;
  m_requests_in_->Add();
  ScopedSpan span(
      Tracer::Global().BeginSpanHere("update.request", TraceTag(update)));
  Join(update, message.src, parsed.value().refresh, /*incremental=*/false);
}

void UpdateManager::OnData(const Message& message) {
  Result<UpdateDataPayload> parsed =
      UpdateDataPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad update data: "
                       << parsed.status().ToString();
    return;
  }
  UpdateDataPayload data = std::move(parsed).value();
  const FlowId update = data.update;
  m_data_in_->Add();
  m_data_tuples_->Record(data.tuples.size());
  // Exactly one flow-tagged "update.data" span per delivered data message;
  // the golden trace test matches their count against the statistics
  // module's data_messages_received.
  ScopedSpan span(
      Tracer::Global().BeginSpanHere("update.data", TraceTag(update)));
  Tracer::Global().AddArg(span.id(), "rule", data.rule_id);
  // An incremental flow's first data message joins its receiver, in the
  // mode the data carries. A full flow's data follows the request on the
  // same FIFO pipe, so the receiver has joined already — unless the pipe
  // was created mid-update (dynamic topology); then join defensively (a
  // refresh flag, if any, arrived with the request).
  Join(update, message.src, /*refresh=*/false, data.incremental);
  UpdateState& state = StateOf(update);

  // Statistics for this data message.
  UpdateReport& report = stats_->ReportFor(update);
  ++report.data_messages_received;
  report.data_bytes_received += message.WireSize();
  report.longest_path_nodes =
      std::max(report.longest_path_nodes,
               static_cast<uint32_t>(data.path.size() + 1));
  report.acquaintances_queried.insert(message.src.value);
  RuleTrafficStats& traffic = report.received_per_rule[data.rule_id];
  ++traffic.messages;
  traffic.tuples += data.tuples.size();
  traffic.bytes += message.WireSize();

  // T' = T \ R ; R += T'. The wrapper's set semantics performs the fused
  // version; with dedup_received off the full batch is used as the delta.
  Result<std::map<std::string, std::vector<Tuple>>> applied =
      wrapper_->ApplyHeadTuples(data.tuples);
  if (!applied.ok()) {
    CODB_LOG(kError) << node_name_ << ": applying update data failed: "
                     << applied.status().ToString();
    return;
  }
  std::map<std::string, std::vector<Tuple>> delta =
      std::move(applied).value();
  for (const auto& [relation, rows] : delta) {
    report.tuples_added += rows.size();
  }
  if (!options_.dedup_received) {
    delta.clear();
    for (const HeadTuple& ht : data.tuples) {
      delta[ht.relation].push_back(ht.tuple);
    }
  }
  if (delta.empty()) {
    CheckClosing(update, state);
    return;
  }

  if (state.exports_suppressed) {
    CheckClosing(update, state);
    return;
  }

  // Recompute the incoming links dependent on this outgoing link,
  // substituting the delta, and forward along simple paths only.
  std::vector<uint32_t> extended_path = data.path;
  extended_path.push_back(self_.value);

  for (const std::string& dependent : link_graph_->DependentOn(data.rule_id)) {
    if (subsumed_incoming_.find(dependent) != subsumed_incoming_.end()) {
      continue;
    }
    auto link_it = state.incoming.find(dependent);
    if (link_it == state.incoming.end()) continue;  // stale config
    if (link_it->second.closed) {
      // Cannot happen while a relevant outgoing link still delivers; keep
      // the protocol honest if it does.
      CODB_LOG(kWarning) << node_name_ << ": data for closed link "
                         << dependent;
      continue;
    }
    const CoordinationRule& rule = compiled_incoming_.at(dependent);
    Result<PeerId> importer = ResolvePeer(rule.importer());
    if (!importer.ok()) continue;
    // Simple-path constraint: never forward to a node already on the path.
    if (std::find(data.path.begin(), data.path.end(),
                  importer.value().value) != data.path.end()) {
      continue;
    }

    m_rule_evals_->Add();
    ScopedSpan eval_span(Tracer::Global().BeginSpanHere(
        "update.rule_eval", TraceTag(update)));
    Tracer::Global().AddArg(eval_span.id(), "rule", dependent);
    uint64_t input_rows = 0;
    std::vector<Tuple> frontiers =
        rule.EvaluateFrontierDeltas(wrapper_->storage(), delta, &input_rows);
    m_eval_rows_->Add(input_rows);
    eval_span.End();
    ShipFrontiers(update, state, dependent, std::move(frontiers),
                  extended_path);
  }
  CheckClosing(update, state);
}

void UpdateManager::OnLinkClosed(const Message& message) {
  Result<LinkClosedPayload> parsed =
      LinkClosedPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad link-closed: "
                       << parsed.status().ToString();
    return;
  }
  const FlowId update = parsed.value().update;
  m_link_closed_in_->Add();
  ScopedSpan span(Tracer::Global().BeginSpanHere("update.link_closed",
                                                 TraceTag(update)));
  Tracer::Global().AddArg(span.id(), "rule", parsed.value().rule_id);
  Join(update, message.src, /*refresh=*/false, /*incremental=*/false);
  UpdateState& state = StateOf(update);
  auto it = state.outgoing.find(parsed.value().rule_id);
  if (it != state.outgoing.end()) {
    it->second.closed = true;
  }
  CheckClosing(update, state);
}

bool UpdateManager::OutgoingQuiet(const UpdateState& state,
                                  const std::string& rule_id) const {
  auto it = state.outgoing.find(rule_id);
  if (it == state.outgoing.end()) return true;  // not ours / stale
  if (it->second.closed) return true;
  const CoordinationRule* rule = config_->FindRule(rule_id);
  if (rule == nullptr) return true;
  // Churn: an unreachable exporter can never deliver again. Membership
  // eviction counts as unreachable even while the pipe object lingers
  // (silent death never snaps the pipe).
  Result<PeerId> exporter = ResolvePeer(rule->exporter());
  return !exporter.ok() || !Reachable(exporter.value());
}

void UpdateManager::CheckClosing(const FlowId& update, UpdateState& state) {
  // An incremental flow opens no links to close: the root's D-S
  // termination ends it.
  if (!state.joined || state.incremental) return;

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [rule_id, link] : state.incoming) {
      if (link.closed || !link.initial_fired) continue;
      // Links on dependency cycles wait for global quiescence.
      if (link_graph_->IsCyclic(rule_id)) continue;
      bool all_quiet = true;
      for (const std::string& relevant : link_graph_->RelevantFor(rule_id)) {
        if (!OutgoingQuiet(state, relevant)) {
          all_quiet = false;
          break;
        }
      }
      if (!all_quiet) continue;

      link.closed = true;
      progressed = true;
      const CoordinationRule& rule = compiled_incoming_.at(rule_id);
      Result<PeerId> importer = ResolvePeer(rule.importer());
      if (importer.ok() && network_->HasPipe(self_, importer.value())) {
        LinkClosedPayload closed{update, rule_id};
        SendBasic(update, importer.value(), MessageType::kLinkClosed,
                  closed.Serialize());
      }
    }
  }

  // Node-level closed state: all outgoing links quiet.
  UpdateReport& report = stats_->ReportFor(update);
  if (report.closed_virtual_us < 0) {
    bool all_closed = true;
    for (const auto& [rule_id, link] : state.outgoing) {
      if (!OutgoingQuiet(state, rule_id)) {
        all_closed = false;
        break;
      }
    }
    if (all_closed) report.closed_virtual_us = network_->now_us();
  }
}

void UpdateManager::Complete(const FlowId& update, PeerId via) {
  UpdateState& state = StateOf(update);
  if (state.complete) return;
  state.complete = true;

  // Force-close everything still open (cyclic links close here).
  for (auto& [rule_id, link] : state.incoming) link.closed = true;
  for (auto& [rule_id, link] : state.outgoing) link.closed = true;

  UpdateReport& report = stats_->ReportFor(update);
  if (report.closed_virtual_us < 0) {
    report.closed_virtual_us = network_->now_us();
  }
  report.complete_virtual_us = network_->now_us();

  // A lost completion would leave cyclic links open forever on the
  // receiving side; the flood is sequenced and retransmitted. An
  // incremental flow engaged only the peers its data reached, and each of
  // them heard from an exporter that shipped to it, so its completion
  // follows the data edges.
  std::vector<PeerId> targets;
  if (state.incremental) {
    for (PeerId importer : state.shipped_to) {
      if (Reachable(importer)) targets.push_back(importer);
    }
  } else {
    targets = Acquaintances();
  }
  Flood(update, MessageType::kUpdateComplete,
        UpdateCompletePayload{update}.Serialize(), targets, /*skip=*/via);
  CODB_LOG(kInfo) << node_name_ << ": " << update.ToString() << " complete";

  // Root-side completion callback, exactly once: the state.complete guard
  // above makes a second Complete() a no-op, and the callback is erased
  // before it runs so a re-entrant call cannot find it again.
  auto callback = completions_.find(update);
  if (callback != completions_.end()) {
    CompletionFn fn = std::move(callback->second);
    completions_.erase(callback);
    if (fn != nullptr) fn(update);
  }
}

void UpdateManager::OnComplete(const Message& message) {
  Result<UpdateCompletePayload> parsed =
      UpdateCompletePayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad update-complete: "
                       << parsed.status().ToString();
    return;
  }
  m_completes_in_->Add();
  ScopedSpan span(Tracer::Global().BeginSpanHere(
      "update.complete", TraceTag(parsed.value().update)));
  Complete(parsed.value().update, message.src);
}

void UpdateManager::OnPeerLost() {
  for (auto& [update, state] : updates_) {
    if (!state.complete) CheckClosing(update, state);
  }
}

bool UpdateManager::IsJoined(const FlowId& update) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = updates_.find(update);
  return it != updates_.end() && it->second.joined;
}

bool UpdateManager::IsClosed(const FlowId& update) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = updates_.find(update);
  if (it == updates_.end()) return false;
  for (const auto& [rule_id, link] : it->second.outgoing) {
    if (!OutgoingQuiet(it->second, rule_id)) return false;
  }
  return it->second.joined;
}

bool UpdateManager::IsComplete(const FlowId& update) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = updates_.find(update);
  return it != updates_.end() && it->second.complete;
}

bool UpdateManager::OutgoingLinkClosed(const FlowId& update,
                                       const std::string& rule_id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = updates_.find(update);
  if (it == updates_.end()) return false;
  auto link = it->second.outgoing.find(rule_id);
  return link != it->second.outgoing.end() && link->second.closed;
}

bool UpdateManager::IncomingLinkClosed(const FlowId& update,
                                       const std::string& rule_id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = updates_.find(update);
  if (it == updates_.end()) return false;
  auto link = it->second.incoming.find(rule_id);
  return link != it->second.incoming.end() && link->second.closed;
}

std::vector<std::string> UpdateManager::OutgoingLinkIds() const {
  std::vector<std::string> ids;
  for (const CoordinationRule* rule : config_->OutgoingOf(node_name_)) {
    ids.push_back(rule->id());
  }
  return ids;
}

std::vector<std::string> UpdateManager::IncomingLinkIds() const {
  std::vector<std::string> ids;
  for (const CoordinationRule* rule : config_->IncomingOf(node_name_)) {
    ids.push_back(rule->id());
  }
  return ids;
}

}  // namespace codb
