#include "core/flow_engine.h"

#include "core/consistency.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace codb {

namespace {

// Basic messages carry the computation and are D-S acknowledged; the
// completion floods run after it is over.
bool IsBasic(MessageType type) {
  return type != MessageType::kUpdateComplete &&
         type != MessageType::kQueryDone;
}

// "update.<name>" or "query.<name>".
std::string MetricName(FlowId::Scope scope, const char* name) {
  return std::string(scope == FlowId::Scope::kUpdate ? "update." : "query.") +
         name;
}

}  // namespace

FlowEngine::FlowEngine(FlowId::Scope scope, const Context& context)
    : network_(context.network),
      self_(context.self),
      node_name_(context.node_name),
      wrapper_(context.wrapper),
      config_(context.config),
      link_graph_(context.link_graph),
      stats_(context.stats),
      minter_(context.minter),
      m_started_(stats_->metrics().GetCounter(MetricName(scope, "started"))),
      m_dups_suppressed_(stats_->metrics().GetCounter(
          MetricName(scope, "dups_suppressed"))),
      m_root_terminations_(stats_->metrics().GetCounter(
          MetricName(scope, "root_terminations"))),
      m_aborted_(stats_->metrics().GetCounter(MetricName(scope, "aborted"))),
      termination_(context.self, [this](PeerId to, const FlowId& flow) {
        Tracer::Global().Instant(self_.value, "term.ack", TraceTag(flow));
        // The D-S ack is sequenced and retransmitted: losing it would
        // permanently wedge the receiver's deficit. It is not a basic
        // message (no deficit of its own). Send failures are handled by
        // the peer-lost path.
        AckPayload ack{flow};
        reliable_.Send(MakeMessage(self_, to, MessageType::kUpdateAck,
                                   ack.Serialize()),
                       flow, /*basic=*/false);
      }),
      reliable_(context.network, context.reliability,
                [this](const FlowId& flow, PeerId dst, bool basic) {
                  // Retry budget exhausted: the D-S ack for that basic
                  // message will never come, so cancel its deficit unit
                  // or the flow would hang at the root forever. Runs from
                  // a retransmit timer, i.e. outside HandleMessage — take
                  // the monitor (the sender releases its own mutex before
                  // invoking give-up callbacks, so ordering holds).
                  std::lock_guard<std::recursive_mutex> lock(mu_);
                  if (basic) termination_.CancelOne(flow, dst);
                  termination_.MaybeQuiesce(flow);
                },
                stats_->metrics().GetCounter(MetricName(scope, "retransmits")),
                stats_->metrics().GetCounter(
                    MetricName(scope, "send_give_ups"))) {}

Status FlowEngine::Init() {
  for (const CoordinationRule* rule : config_->IncomingOf(node_name_)) {
    CoordinationRule compiled = *rule;
    CODB_RETURN_IF_ERROR(
        compiled.Compile(config_->SchemaOf(rule->exporter()),
                         config_->SchemaOf(rule->importer())));
    compiled_incoming_.emplace(rule->id(), std::move(compiled));
  }
  return Status::Ok();
}

void FlowEngine::HandleMessage(const FlowId& flow, const Message& message) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (message.type == MessageType::kDeliveryAck) {
    Result<DeliveryAckPayload> receipt =
        DeliveryAckPayload::Deserialize(message.payload);
    if (receipt.ok()) {
      reliable_.OnDeliveryAck(flow, message.src, receipt.value().acked_seq);
    }
    return;
  }
  Stopwatch wall;
  if (!AcceptDelivery(flow, message)) return;
  if (message.type == MessageType::kUpdateAck) {
    OnAck(flow, message.src);
  } else {
    if (IsBasic(message.type)) termination_.OnBasicMessage(flow, message.src);
    Dispatch(flow, message);
  }
  // Only this flow's state moved; every other flow's quiescence is as it
  // was after its own last event.
  termination_.MaybeQuiesce(flow);
  OnHandled(flow, message.type, wall.ElapsedMicros());
  // This delivery may have filled the gap in front of parked arrivals.
  DrainReady(flow, message.src);
}

bool FlowEngine::AcceptDelivery(const FlowId& flow, const Message& message) {
  if (message.seq == 0) return true;  // unsequenced sender
  // Receipt first, whatever the verdict: the sender may be retransmitting
  // precisely because the previous receipt was lost, and a parked message
  // is safely buffered here.
  DeliveryAckPayload receipt{flow, message.seq};
  network_->Send(MakeMessage(self_, message.src, MessageType::kDeliveryAck,
                             receipt.Serialize()));
  switch (dup_filter_.Check(flow, message.src, message.seq)) {
    case DupFilter::Verdict::kDeliver:
      return true;
    case DupFilter::Verdict::kDuplicate:
      // Already processed. Crucially this also protects the termination
      // detector: a duplicated engaging message must not trigger a second
      // D-S ack while the first engagement is still pending.
      m_dups_suppressed_->Add();
      return false;
    case DupFilter::Verdict::kHold:
      // A gap precedes it: the retransmission of a dropped message is on
      // its way. Processing out of order would let e.g. a LinkClosed
      // overtake the data sent before it, so park until the gap fills.
      dup_filter_.Hold(flow, message.src, message);
      return false;
  }
  return false;
}

void FlowEngine::DrainReady(const FlowId& flow, PeerId src) {
  while (std::optional<Message> ready = dup_filter_.NextReady(flow, src)) {
    // Re-enters HandleMessage, where Check() now classifies it as the
    // in-order delivery it has become.
    HandleMessage(flow, *ready);
  }
}

void FlowEngine::OnAck(const FlowId& flow, PeerId from) {
  termination_.OnAck(flow, from);
}

void FlowEngine::HandlePipeClosed(PeerId other) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  reliable_.OnPeerLost(other);
  termination_.OnPeerLost(other);
  OnPeerLost();
  termination_.MaybeQuiesce();
}

void FlowEngine::RunRoot(const FlowId& flow,
                         const std::function<void()>& first_step) {
  m_started_->Add();
  termination_.StartRoot(flow, [this](const FlowId& done) {
    m_root_terminations_->Add();
    FinishRoot(done);
  });
  const ReliabilityOptions& reliability = reliable_.options();
  if (reliability.enabled && reliability.flow_deadline_us > 0) {
    // Guarded by the sender's liveness token: if a reconfiguration
    // rebuilds the manager before the deadline, the timer must not touch
    // the dead instance.
    std::weak_ptr<void> alive = reliable_.liveness();
    network_->ScheduleAfter(reliability.flow_deadline_us,
                            [this, alive, flow] {
                              if (!alive.expired()) AbortIfIncomplete(flow);
                            });
  }
  first_step();
  termination_.MaybeQuiesce(flow);
}

void FlowEngine::AbortIfIncomplete(const FlowId& flow) {
  // Entered from the flow-deadline timer, outside HandleMessage.
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (termination_.IsTerminated(flow)) return;
  CODB_LOG(kWarning) << node_name_ << ": deadline expired for "
                     << flow.ToString() << "; finishing with partial results";
  m_aborted_->Add();
  stats_->ReportFor(flow).aborted = true;
  termination_.Abort(flow);
  FinishRoot(flow);
}

Status FlowEngine::SendBasic(const FlowId& flow, PeerId dst, MessageType type,
                             std::vector<uint8_t> payload) {
  Status sent = reliable_.Send(
      MakeMessage(self_, dst, type, std::move(payload)), flow,
      /*basic=*/true);
  if (sent.ok()) {
    termination_.OnSent(flow, dst);
  } else {
    CODB_LOG(kDebug) << node_name_ << ": send " << MessageTypeName(type)
                     << " to " << dst.ToString()
                     << " failed: " << sent.ToString();
  }
  return sent;
}

void FlowEngine::Flood(const FlowId& flow, MessageType type,
                       const std::vector<uint8_t>& payload,
                       const std::vector<PeerId>& targets, PeerId skip) {
  for (PeerId target : targets) {
    if (target == skip) continue;
    reliable_.Send(MakeMessage(self_, target, type, payload), flow,
                   /*basic=*/false);
  }
}

Result<PeerId> FlowEngine::ResolvePeer(const std::string& node_name) const {
  auto it = peer_cache_.find(node_name);
  if (it != peer_cache_.end()) return it->second;
  CODB_ASSIGN_OR_RETURN(PeerId id, network_->FindByName(node_name));
  peer_cache_.emplace(node_name, id);
  return id;
}

bool FlowEngine::Reachable(PeerId peer) const {
  return network_->IsAlive(peer) && network_->HasPipe(self_, peer) &&
         (presumed_alive_ == nullptr || presumed_alive_(peer));
}

std::vector<PeerId> FlowEngine::Acquaintances() const {
  std::vector<PeerId> out;
  for (const std::string& name : config_->AcquaintancesOf(node_name_)) {
    Result<PeerId> peer = ResolvePeer(name);
    if (peer.ok() && Reachable(peer.value())) out.push_back(peer.value());
  }
  return out;
}

bool FlowEngine::LocallyInconsistent() const {
  const NodeDecl* decl = config_->FindNode(node_name_);
  if (decl == nullptr || decl->keys.empty()) return false;
  return !FindKeyViolations(wrapper_->storage(), decl->keys).empty();
}

std::string FlowEngine::TraceTag(const FlowId& flow) {
  return Tracer::Global().enabled() ? flow.ToString() : std::string();
}

}  // namespace codb
