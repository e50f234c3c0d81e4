#include "core/query_manager.h"

#include <algorithm>

#include "obs/trace.h"
#include "query/evaluator.h"
#include "util/logging.h"

namespace codb {

QueryManager::QueryManager(const Context& context, uint64_t* query_seq)
    : FlowEngine(FlowId::Scope::kQuery, context),
      m_requests_in_(stats_->metrics().GetCounter("query.requests_in")),
      m_results_in_(stats_->metrics().GetCounter("query.results_in")),
      m_results_out_(stats_->metrics().GetCounter("query.results_out")),
      m_done_in_(stats_->metrics().GetCounter("query.done_in")),
      m_rule_evals_(stats_->metrics().GetCounter("query.rule_evals")),
      m_states_(stats_->metrics().GetGauge("query.states")),
      m_layer_rows_(stats_->metrics().GetGauge("query.layer_rows")),
      query_seq_(query_seq) {
  // A rebuilt manager starts empty; its predecessor's states went with it.
  m_states_->Set(0);
  m_layer_rows_->Set(0);
}

QueryManager::QueryState& QueryManager::StateOf(const FlowId& query) {
  QueryState& state = queries_[query];
  m_states_->Set(static_cast<int64_t>(queries_.size()));
  return state;
}

Overlay& QueryManager::OverlayOf(QueryState& state) {
  if (state.overlay == nullptr) {
    state.overlay = std::make_unique<Overlay>(wrapper_->storage());
  }
  return *state.overlay;
}

Result<FlowId> QueryManager::StartQuery(const ConjunctiveQuery& query,
                                        ProgressFn on_progress) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  CODB_RETURN_IF_ERROR(query.Validate());
  if (query.head.size() != 1 || !query.ExistentialVars().empty()) {
    return Status::InvalidArgument(
        "node queries need a single, safe head atom");
  }
  DatabaseSchema own_schema = config_->SchemaOf(node_name_);
  DatabaseSchema head_schema;  // head predicate is virtual; skip head check
  for (const Atom& atom : query.body) {
    if (own_schema.FindRelation(atom.predicate) == nullptr) {
      return Status::NotFound("query body predicate '" + atom.predicate +
                              "' not in this node's schema");
    }
  }

  FlowId id{FlowId::Scope::kQuery, self_.value, (*query_seq_)++};
  // Root span of the diffusing query computation.
  ScopedSpan span(
      Tracer::Global().BeginSpan(self_.value, "query.start", TraceTag(id)));
  QueryState& state = StateOf(id);
  state.owned = true;
  state.user_query = query;
  state.on_progress = std::move(on_progress);
  OverlayOf(state);

  stats_->ReportFor(id).start_virtual_us = network_->now_us();

  std::vector<std::string> needed;
  for (const Atom& atom : query.body) {
    if (std::find(needed.begin(), needed.end(), atom.predicate) ==
        needed.end()) {
      needed.push_back(atom.predicate);
    }
  }
  RunRoot(id, [&] { Fetch(id, state, needed, /*label=*/{self_.value}); });
  return id;
}

void QueryManager::Fetch(const FlowId& query, QueryState& state,
                         const std::vector<std::string>& relations,
                         const std::vector<uint32_t>& label) {
  // Ask the exporter of every outgoing link whose head writes one of the
  // needed relations — unless the exporter is already on the request path.
  for (const CoordinationRule* rule : config_->OutgoingOf(node_name_)) {
    bool relevant = false;
    for (const std::string& head_rel : rule->HeadRelations()) {
      if (std::find(relations.begin(), relations.end(), head_rel) !=
          relations.end()) {
        relevant = true;
        break;
      }
    }
    if (!relevant) continue;

    Result<PeerId> exporter = ResolvePeer(rule->exporter());
    if (!exporter.ok()) continue;
    if (std::find(label.begin(), label.end(), exporter.value().value) !=
        label.end()) {
      continue;  // simple-path guard
    }
    if (!state.requested.insert({rule->id(), label}).second) continue;

    QueryRequestPayload request;
    request.query = query;
    request.rule_id = rule->id();
    request.label = label;
    SendBasic(query, exporter.value(), MessageType::kQueryRequest,
              request.Serialize());
    stats_->ReportFor(query).acquaintances_queried.insert(
        exporter.value().value);
  }
}

void QueryManager::Dispatch(const FlowId& /*query*/,
                            const Message& message) {
  // Each handler reads the query id from its full payload.
  switch (message.type) {
    case MessageType::kQueryRequest:
      OnRequest(message);
      break;
    case MessageType::kQueryResult:
      OnResult(message);
      break;
    case MessageType::kQueryDone:
      OnDone(message);
      break;
    default:
      CODB_LOG(kWarning) << node_name_ << ": query manager got unexpected "
                         << MessageTypeName(message.type);
      break;
  }
}

void QueryManager::OnRequest(const Message& message) {
  Result<QueryRequestPayload> parsed =
      QueryRequestPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad query request: "
                       << parsed.status().ToString();
    return;
  }
  QueryRequestPayload request = std::move(parsed).value();
  m_requests_in_->Add();
  ScopedSpan span(Tracer::Global().BeginSpanHere(
      "query.request", TraceTag(request.query)));
  Tracer::Global().AddArg(span.id(), "rule", request.rule_id);

  auto rule_it = compiled_incoming_.find(request.rule_id);
  if (rule_it == compiled_incoming_.end()) {
    CODB_LOG(kWarning) << node_name_ << ": asked to serve unknown rule "
                       << request.rule_id;
    return;
  }

  QueryState& state = StateOf(request.query);
  QueryState::Serving& serving = state.serving[request.rule_id];
  serving.requester = message.src;
  bool new_label = serving.labels.insert(request.label).second;

  // Answer from local (overlay) data immediately...
  Serve(request.query, state, request.rule_id, /*delta=*/nullptr);

  // ...and forward the fetch through our own relevant outgoing links.
  if (new_label) {
    std::vector<uint32_t> extended = request.label;
    extended.push_back(self_.value);
    Fetch(request.query, state,
          rule_it->second.BodyRelations(), extended);
  }
}

void QueryManager::Serve(
    const FlowId& query, QueryState& state, const std::string& rule_id,
    const std::map<std::string, std::vector<Tuple>>* delta) {
  // Local inconsistency does not propagate: serve nothing while the local
  // store violates its own constraints.
  if (LocallyInconsistent()) return;
  const CoordinationRule& rule = compiled_incoming_.at(rule_id);
  const PeerId requester = state.serving.at(rule_id).requester;
  const Overlay& overlay = OverlayOf(state);

  m_rule_evals_->Add();
  ScopedSpan span(
      Tracer::Global().BeginSpanHere("query.serve", TraceTag(query)));
  Tracer::Global().AddArg(span.id(), "rule", rule_id);

  // The snapshot part reads the live store: safe because every handler
  // runs under Node::mutex_, the lock of the store's writers.
  std::vector<Tuple> frontiers =
      delta == nullptr ? rule.EvaluateFrontier(overlay)
                       : rule.EvaluateFrontierDeltas(overlay, *delta);
  state.exports.Admit(rule_id, state.export_epoch, /*incremental=*/false,
                      frontiers);
  if (frontiers.empty()) return;

  QueryResultPayload result;
  result.query = query;
  result.rule_id = rule_id;
  result.tuples.reserve(frontiers.size());
  for (const Tuple& frontier : frontiers) {
    rule.InstantiateHeadInto(frontier, *minter_, result.tuples);
  }
  size_t tuple_count = result.tuples.size();
  std::vector<uint8_t> payload = result.Serialize();
  size_t bytes = payload.size() + Message::kHeaderBytes;
  SendBasic(query, requester, MessageType::kQueryResult, std::move(payload));
  m_results_out_->Add();

  UpdateReport& report = stats_->ReportFor(query);
  ++report.data_messages_sent;
  report.data_bytes_sent += bytes;
  RuleTrafficStats& traffic = report.sent_per_rule[rule_id];
  ++traffic.messages;
  traffic.tuples += tuple_count;
  traffic.bytes += bytes;
  report.result_destinations.insert(requester.value);
}

void QueryManager::OnResult(const Message& message) {
  Result<QueryResultPayload> parsed =
      QueryResultPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad query result: "
                       << parsed.status().ToString();
    return;
  }
  QueryResultPayload result = std::move(parsed).value();
  m_results_in_->Add();
  ScopedSpan span(Tracer::Global().BeginSpanHere(
      "query.result", TraceTag(result.query)));
  Tracer::Global().AddArg(span.id(), "rule", result.rule_id);

  QueryState& state = StateOf(result.query);
  Overlay& overlay = OverlayOf(state);

  UpdateReport& report = stats_->ReportFor(result.query);
  ++report.data_messages_received;
  report.data_bytes_received += message.WireSize();
  RuleTrafficStats& traffic = report.received_per_rule[result.rule_id];
  ++traffic.messages;
  traffic.tuples += result.tuples.size();
  traffic.bytes += message.WireSize();

  // Reconcile into the overlay; collect the genuinely new tuples (those
  // neither in the snapshot nor in the layer yet).
  std::map<std::string, std::vector<Tuple>> delta;
  size_t new_count = 0;
  for (const HeadTuple& ht : result.tuples) {
    Result<bool> added = overlay.Insert(ht.relation, ht.tuple);
    if (!added.ok()) {
      CODB_LOG(kWarning) << node_name_ << ": query result for unknown "
                         << "relation " << ht.relation;
      continue;
    }
    if (added.value()) {
      delta[ht.relation].push_back(ht.tuple);
      ++new_count;
    }
  }
  report.tuples_added += new_count;
  m_layer_rows_->Add(static_cast<int64_t>(new_count));

  if (state.owned && state.on_progress && new_count > 0) {
    state.on_progress({new_count, false});
  }
  if (delta.empty()) return;

  // Re-serve every request that depends on the grown relations.
  for (const std::string& dependent :
       link_graph_->DependentOn(result.rule_id)) {
    if (state.serving.find(dependent) != state.serving.end()) {
      Serve(result.query, state, dependent, &delta);
    }
  }
}

void QueryManager::FinishRoot(const FlowId& query) {
  QueryState& state = StateOf(query);
  state.done = true;
  stats_->ReportFor(query).complete_virtual_us = network_->now_us();
  if (state.on_progress) state.on_progress({0, true});

  // Tell participants to drop their per-query state; a lost done-flood
  // would leak per-query overlays.
  done_flood_seen_.insert(query);
  Flood(query, MessageType::kQueryDone, QueryDonePayload{query}.Serialize(),
        Acquaintances(), /*skip=*/PeerId());
}

void QueryManager::OnDone(const Message& message) {
  Result<QueryDonePayload> parsed =
      QueryDonePayload::Deserialize(message.payload);
  if (!parsed.ok()) return;
  const FlowId query = parsed.value().query;
  m_done_in_->Add();
  if (!done_flood_seen_.insert(query).second) return;
  auto it = queries_.find(query);
  if (it != queries_.end() && !it->second.owned) {
    const Overlay* overlay = it->second.overlay.get();
    if (overlay != nullptr) {
      m_layer_rows_->Add(-static_cast<int64_t>(overlay->LayerRows()));
    }
    queries_.erase(it);
    m_states_->Set(static_cast<int64_t>(queries_.size()));
  }
  Flood(query, MessageType::kQueryDone, message.payload, Acquaintances(),
        /*skip=*/message.src);
}

bool QueryManager::IsDone(const FlowId& query) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = queries_.find(query);
  return it != queries_.end() && it->second.done;
}

size_t QueryManager::ForeignQueryStates() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [id, state] : queries_) {
    if (!state.owned) ++count;
  }
  return count;
}

Result<std::vector<Tuple>> QueryManager::Answers(const FlowId& query) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = queries_.find(query);
  if (it == queries_.end() || !it->second.owned) {
    return Status::NotFound("not the origin of " + query.ToString());
  }
  const QueryState& state = it->second;
  if (!state.compiled_user_query.has_value()) {
    const ConjunctiveQuery& q = state.user_query;
    std::vector<std::string> output;
    for (const Term& term : q.head[0].terms) {
      if (term.is_var()) output.push_back(term.var());
    }
    CODB_ASSIGN_OR_RETURN(
        CompiledQuery compiled,
        CompiledQuery::Compile(q, wrapper_->storage().Schema(), output));
    state.compiled_user_query.emplace(std::move(compiled));
  }
  // StartQuery opens the overlay of every owned query on the spot.
  return state.compiled_user_query->Evaluate(*state.overlay);
}

Result<std::vector<Tuple>> QueryManager::CertainAnswers(
    const FlowId& query) const {
  CODB_ASSIGN_OR_RETURN(std::vector<Tuple> all, Answers(query));
  std::vector<Tuple> certain;
  for (Tuple& tuple : all) {
    if (!tuple.HasNull()) certain.push_back(std::move(tuple));
  }
  return certain;
}

}  // namespace codb
