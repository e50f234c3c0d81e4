#include "membership/heartbeat.h"

#include <algorithm>

#include "util/logging.h"

namespace codb {

namespace {

// A freshly tracked peer cannot be suspected for this many periods (it may
// still be settling in; its first beacon may be in flight).
constexpr double kGracePeriods = 2.0;

// Hard floor of the suspicion timeout, whatever the RTT estimate says.
constexpr int64_t kMinSuspectTimeoutUs = 100'000;

// Beacons carry at most this many digest entries (non-alive verdicts
// first, so bad news travels).
constexpr size_t kDigestMaxEntries = 16;

// Spreads session phases over the period so a whole deployment's beacons
// do not land on the same virtual instant (a knuth-hash of the peer id).
int64_t PhaseOf(PeerId self, int64_t period_us) {
  uint64_t h = static_cast<uint64_t>(self.value) * 2654435761u;
  return static_cast<int64_t>(h % static_cast<uint64_t>(period_us));
}

}  // namespace

std::vector<uint8_t> HeartbeatPayload::Serialize() const {
  WireWriter writer;
  writer.WriteU64(incarnation);
  writer.WriteU64(seq);
  writer.WriteI64(send_time_us);
  writer.WriteU32(static_cast<uint32_t>(digest.size()));
  for (const HeartbeatDigestEntry& entry : digest) {
    writer.WriteU32(entry.peer);
    writer.WriteU64(entry.incarnation);
    writer.WriteU8(static_cast<uint8_t>(entry.health));
  }
  return writer.Take();
}

Result<HeartbeatPayload> HeartbeatPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  HeartbeatPayload out;
  CODB_ASSIGN_OR_RETURN(out.incarnation, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(out.seq, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(out.send_time_us, reader.ReadI64());
  // Each digest entry is peer u32 + incarnation u64 + health u8.
  CODB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(4 + 8 + 1));
  out.digest.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HeartbeatDigestEntry entry;
    CODB_ASSIGN_OR_RETURN(entry.peer, reader.ReadU32());
    CODB_ASSIGN_OR_RETURN(entry.incarnation, reader.ReadU64());
    CODB_ASSIGN_OR_RETURN(uint8_t health, reader.ReadU8());
    if (health > static_cast<uint8_t>(PeerHealth::kDead)) {
      return Status::ParseError("bad digest health value");
    }
    entry.health = static_cast<PeerHealth>(health);
    out.digest.push_back(entry);
  }
  return out;
}

std::vector<uint8_t> HeartbeatAckPayload::Serialize() const {
  WireWriter writer;
  writer.WriteU64(incarnation);
  writer.WriteU64(seq);
  writer.WriteI64(echo_send_time_us);
  return writer.Take();
}

Result<HeartbeatAckPayload> HeartbeatAckPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  HeartbeatAckPayload out;
  CODB_ASSIGN_OR_RETURN(out.incarnation, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(out.seq, reader.ReadU64());
  CODB_ASSIGN_OR_RETURN(out.echo_send_time_us, reader.ReadI64());
  return out;
}

Result<Message> MakeHeartbeatAck(const Message& beacon, PeerId self,
                                 uint64_t incarnation, int64_t now_us) {
  (void)now_us;
  CODB_ASSIGN_OR_RETURN(HeartbeatPayload parsed,
                        HeartbeatPayload::Deserialize(beacon.payload));
  HeartbeatAckPayload ack;
  ack.incarnation = incarnation;
  ack.seq = parsed.seq;
  ack.echo_send_time_us = parsed.send_time_us;
  Message reply;
  reply.src = self;
  reply.dst = beacon.src;
  reply.type = MessageType::kHeartbeatAck;
  reply.payload = ack.Serialize();
  reply.maintenance = true;
  return reply;
}

std::shared_ptr<HeartbeatSession> HeartbeatSession::Create(
    NetworkBase* network, PeerId self, MembershipOptions options,
    MetricsRegistry* metrics) {
  return std::shared_ptr<HeartbeatSession>(
      new HeartbeatSession(network, self, options, metrics));
}

HeartbeatSession::HeartbeatSession(NetworkBase* network, PeerId self,
                                   MembershipOptions options,
                                   MetricsRegistry* metrics)
    : network_(network),
      self_(self),
      options_(options),
      timeouts_([&options] {
        FailureDetector::Timeouts t;
        const double period = static_cast<double>(options.period_us);
        t.suspect_us = std::max<int64_t>(
            static_cast<int64_t>(options.suspect_after_periods * period),
            kMinSuspectTimeoutUs);
        t.evict_us = std::max<int64_t>(
            static_cast<int64_t>(options.evict_after_periods * period), 1);
        t.grace_us = static_cast<int64_t>(kGracePeriods * period);
        return t;
      }()),
      detector_(timeouts_),
      incarnation_(options.incarnation),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    m_beacons_out_ = metrics_->GetCounter("membership.beacons_out");
    m_beacons_in_ = metrics_->GetCounter("membership.beacons_in");
    m_acks_in_ = metrics_->GetCounter("membership.acks_in");
    m_suspicions_ = metrics_->GetCounter("membership.suspicions");
    m_false_suspicions_ =
        metrics_->GetCounter("membership.false_suspicions");
    m_evictions_ = metrics_->GetCounter("membership.evictions");
    m_stale_ = metrics_->GetCounter("membership.stale_rejected");
    m_alive_peers_ = metrics_->GetGauge("membership.alive_peers");
    m_rtt_hist_ = metrics_->GetHistogram("membership.rtt_us");
  }
}

void HeartbeatSession::AddListener(MembershipListener* listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.push_back(listener);
}

void HeartbeatSession::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
  }
  ArmTick(PhaseOf(self_, options_.period_us));
}

void HeartbeatSession::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void HeartbeatSession::ArmTick(int64_t delay_us) {
  std::weak_ptr<HeartbeatSession> weak = weak_from_this();
  network_->ScheduleMaintenance(delay_us, [weak] {
    if (auto self = weak.lock()) self->Tick();
  });
}

void HeartbeatSession::Tick() {
  std::vector<FailureDetector::Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    const int64_t now = network_->now_us();
    SendBeacons(now);
    events = detector_.Tick(now);
    if (m_alive_peers_ != nullptr) {
      m_alive_peers_->Set(
          static_cast<int64_t>(detector_.AlivePeers().size()));
    }
  }
  // Outside the lock: listeners (the node's eviction fan-out) call back
  // into the managers, whose cleanup consults IsPresumedAlive() on this
  // session — re-entry under a held non-recursive mutex would deadlock.
  Dispatch(events);
  ArmTick(options_.period_us);
}

void HeartbeatSession::SendBeacons(int64_t now_us) {
  std::vector<HeartbeatDigestEntry> digest = BuildDigest();
  for (PeerId neighbor : network_->Neighbors(self_)) {
    if (detector_.IsTracked(neighbor) &&
        detector_.HealthOf(neighbor) == PeerHealth::kDead) {
      continue;  // no traffic to the evicted
    }
    detector_.Track(neighbor, now_us);
    HeartbeatPayload beacon;
    beacon.incarnation = incarnation_;
    beacon.seq = ++beacon_seq_;
    beacon.send_time_us = now_us;
    beacon.digest = digest;
    Message message;
    message.src = self_;
    message.dst = neighbor;
    message.type = MessageType::kHeartbeat;
    message.payload = beacon.Serialize();
    message.maintenance = true;
    if (network_->Send(std::move(message)).ok()) {
      ++beacons_out_;
      if (m_beacons_out_ != nullptr) m_beacons_out_->Add();
    }
  }
}

std::vector<HeartbeatDigestEntry> HeartbeatSession::BuildDigest() {
  // Non-alive verdicts first (bad news must travel); alive entries fill
  // the remaining slots starting at a rotating offset so every peer's
  // incarnation eventually reaches everyone.
  std::vector<HeartbeatDigestEntry> bad;
  std::vector<HeartbeatDigestEntry> good;
  for (PeerId peer : detector_.Tracked()) {
    HeartbeatDigestEntry entry;
    entry.peer = peer.value;
    entry.incarnation = detector_.IncarnationOf(peer);
    entry.health = detector_.HealthOf(peer);
    (entry.health == PeerHealth::kAlive ? good : bad).push_back(entry);
  }
  std::vector<HeartbeatDigestEntry> out;
  for (const HeartbeatDigestEntry& entry : bad) {
    if (out.size() >= kDigestMaxEntries) break;
    out.push_back(entry);
  }
  if (!good.empty()) {
    const size_t start = digest_rotation_++ % good.size();
    for (size_t i = 0; i < good.size() && out.size() < kDigestMaxEntries;
         ++i) {
      out.push_back(good[(start + i) % good.size()]);
    }
  }
  return out;
}

void HeartbeatSession::HandleBeacon(const Message& message) {
  auto parsed = HeartbeatPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << "membership: malformed beacon from "
                       << message.src.ToString();
    return;
  }
  const HeartbeatPayload& beacon = parsed.value();
  std::vector<FailureDetector::Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = network_->now_us();
    ++beacons_in_;
    if (m_beacons_in_ != nullptr) m_beacons_in_->Add();

    if (detector_.IsTracked(message.src) &&
        beacon.incarnation < detector_.IncarnationOf(message.src)) {
      // Stale incarnation: a zombie of a peer we know restarted (or a
      // long-delayed duplicate). No liveness credit, no ack.
      ++stale_beacons_;
      if (m_stale_ != nullptr) m_stale_->Add();
      return;
    }

    events = detector_.HeardFrom(message.src, beacon.incarnation, now);
    ProcessDigest(beacon, now, events);
    // Traffic-driven evaluation: an arriving beacon is also a chance to
    // notice that some OTHER tracked peer crossed its silence threshold.
    // In an active deployment this makes detection converge on the
    // protocol threshold itself instead of paying up to a full period of
    // tick quantization per transition; a session with no live
    // neighbours still falls back to the tick cadence.
    std::vector<FailureDetector::Event> due = detector_.Tick(now);
    events.insert(events.end(), due.begin(), due.end());

    HeartbeatAckPayload ack;
    ack.incarnation = incarnation_;
    ack.seq = beacon.seq;
    ack.echo_send_time_us = beacon.send_time_us;
    Message reply;
    reply.src = self_;
    reply.dst = message.src;
    reply.type = MessageType::kHeartbeatAck;
    reply.payload = ack.Serialize();
    reply.maintenance = true;
    // Best-effort: a failed ack send just looks like silence to the peer.
    Status ignored = network_->Send(std::move(reply));
    (void)ignored;
  }
  Dispatch(events);  // outside the lock; see Tick()
}

void HeartbeatSession::ProcessDigest(
    const HeartbeatPayload& beacon, int64_t now_us,
    std::vector<FailureDetector::Event>& events) {
  for (const HeartbeatDigestEntry& entry : beacon.digest) {
    if (entry.peer == self_.value) {
      // Someone thinks we are suspect or dead. Refute by outliving the
      // claim: adopt a strictly higher incarnation, which every future
      // beacon carries (SWIM's incarnation bump).
      if (entry.health != PeerHealth::kAlive &&
          entry.incarnation >= incarnation_) {
        incarnation_ = entry.incarnation + 1;
      }
      continue;
    }
    std::vector<FailureDetector::Event> claim_events = detector_.OnClaim(
        PeerId(entry.peer), entry.incarnation, entry.health, now_us);
    events.insert(events.end(), claim_events.begin(), claim_events.end());
  }
}

void HeartbeatSession::HandleAck(const Message& message) {
  auto parsed = HeartbeatAckPayload::Deserialize(message.payload);
  if (!parsed.ok()) {
    CODB_LOG(kWarning) << "membership: malformed heartbeat ack from "
                       << message.src.ToString();
    return;
  }
  const HeartbeatAckPayload& ack = parsed.value();
  std::vector<FailureDetector::Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t now = network_->now_us();
    ++acks_in_;
    if (m_acks_in_ != nullptr) m_acks_in_->Add();

    if (detector_.IsTracked(message.src) &&
        ack.incarnation < detector_.IncarnationOf(message.src)) {
      ++stale_beacons_;
      if (m_stale_ != nullptr) m_stale_->Add();
      return;
    }

    events = detector_.HeardFrom(message.src, ack.incarnation, now);
    // Same traffic-driven evaluation as HandleBeacon.
    std::vector<FailureDetector::Event> due = detector_.Tick(now);
    events.insert(events.end(), due.begin(), due.end());

    const int64_t sample = now - ack.echo_send_time_us;
    RttEstimator& estimator = rtt_[message.src];
    estimator.AddSample(sample);
    if (m_rtt_hist_ != nullptr) {
      m_rtt_hist_->Record(static_cast<uint64_t>(std::max<int64_t>(
          sample, 0)));
    }
    if (metrics_ != nullptr) {
      metrics_
          ->GetGauge("membership.rtt_us." + network_->NameOf(message.src))
          ->Set(estimator.srtt_us());
    }
    UpdateSuspectTimeout(message.src);
  }
  Dispatch(events);  // outside the lock; see Tick()
}

void HeartbeatSession::UpdateSuspectTimeout(PeerId peer) {
  auto it = rtt_.find(peer);
  if (it == rtt_.end() || !it->second.HasSample()) return;
  // Adaptive suspicion: base silence budget plus the RTO-style margin, so
  // a peer behind a slow link earns proportionally more patience.
  const int64_t margin = it->second.RetransmitTimeout(0);
  detector_.SetSuspectTimeout(peer, timeouts_.suspect_us + margin);
}

void HeartbeatSession::Forget(PeerId other) {
  std::lock_guard<std::mutex> lock(mutex_);
  detector_.Forget(other);
  rtt_.erase(other);
}

bool HeartbeatSession::IsPresumedAlive(PeerId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!detector_.IsTracked(peer)) return true;
  return detector_.HealthOf(peer) != PeerHealth::kDead;
}

uint64_t HeartbeatSession::incarnation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return incarnation_;
}

PeerHealth HeartbeatSession::HealthOf(PeerId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return detector_.IsTracked(peer) ? detector_.HealthOf(peer)
                                   : PeerHealth::kAlive;
}

int64_t HeartbeatSession::SrttOf(PeerId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rtt_.find(peer);
  return it == rtt_.end() ? 0 : it->second.srtt_us();
}

HeartbeatSession::Counters HeartbeatSession::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Counters out;
  out.beacons_out = beacons_out_;
  out.beacons_in = beacons_in_;
  out.acks_in = acks_in_;
  out.stale_rejected = stale_beacons_ + detector_.stale_rejected();
  out.suspicions = detector_.suspicions();
  out.false_suspicions = detector_.false_suspicions();
  out.evictions = detector_.evictions();
  return out;
}

void HeartbeatSession::Dispatch(
    const std::vector<FailureDetector::Event>& events) {
  for (const FailureDetector::Event& event : events) {
    switch (event.kind) {
      case FailureDetector::Event::kSuspected:
        if (m_suspicions_ != nullptr) m_suspicions_->Add();
        CODB_LOG(kDebug) << "membership: " << self_.ToString()
                         << " suspects " << event.peer.ToString();
        for (MembershipListener* listener : listeners_) {
          listener->OnPeerSuspected(event.peer, event.at_us);
        }
        break;
      case FailureDetector::Event::kRecovered:
        if (m_false_suspicions_ != nullptr) m_false_suspicions_->Add();
        CODB_LOG(kDebug) << "membership: " << self_.ToString()
                         << " clears suspicion of "
                         << event.peer.ToString();
        for (MembershipListener* listener : listeners_) {
          listener->OnPeerRecovered(event.peer, event.at_us);
        }
        break;
      case FailureDetector::Event::kEvicted:
        if (m_evictions_ != nullptr) m_evictions_->Add();
        CODB_LOG(kDebug) << "membership: " << self_.ToString()
                         << " evicts " << event.peer.ToString()
                         << " after " << event.silent_for_us
                         << "us of silence";
        for (MembershipListener* listener : listeners_) {
          listener->OnPeerEvicted(event.peer, event.at_us);
        }
        break;
    }
  }
}

}  // namespace codb
