#include "net/network_interface.h"

#include <chrono>

#include "obs/trace.h"
#include "util/logging.h"

namespace codb {

PeerId NetworkBase::Join(const std::string& name, NetworkPeer* peer) {
  PeerId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = PeerId(static_cast<uint32_t>(peers_.size()));
    peers_.push_back({name, peer, /*alive=*/true});
    adjacency_.emplace_back();
    OnJoin(id);
  }
  Tracer::Global().SetNodeName(id.value, name);
  CODB_LOG(kDebug) << "network: " << name << " joined as "
                   << id.ToString();
  return id;
}

Status NetworkBase::Leave(PeerId id) {
  std::vector<uint32_t> to_notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!IsAliveLocked(id)) {
      return Status::NotFound(id.ToString() + " is not on the network");
    }
    peers_[id.value].alive = false;
    peers_[id.value].handler = nullptr;
    for (uint32_t other : adjacency_[id.value]) {
      Pipe* forward = FindPipeLocked(id, PeerId(other));
      Pipe* backward = FindPipeLocked(PeerId(other), id);
      if (forward != nullptr && forward->open()) to_notify.push_back(other);
      if (forward != nullptr) forward->Close();
      if (backward != nullptr) backward->Close();
      adjacency_[other].erase(id.value);
    }
    adjacency_[id.value].clear();
  }
  for (uint32_t other : to_notify) NotifyPipeClosed(PeerId(other), id);
  return Status::Ok();
}

bool NetworkBase::IsAlive(PeerId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return IsAliveLocked(id);
}

std::string NetworkBase::NameOf(PeerId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!id.valid() || id.value >= peers_.size()) return "<unknown>";
  return peers_[id.value].name;
}

Result<PeerId> NetworkBase::FindByName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].alive && peers_[i].name == name) {
      return PeerId(static_cast<uint32_t>(i));
    }
  }
  return Status::NotFound("no alive peer named '" + name + "'");
}

std::vector<PeerId> NetworkBase::AlivePeers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PeerId> out;
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].alive) out.push_back(PeerId(static_cast<uint32_t>(i)));
  }
  return out;
}

Status NetworkBase::OpenPipe(PeerId a, PeerId b, LinkProfile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!IsAliveLocked(a) || !IsAliveLocked(b)) {
    return Status::Unavailable("both endpoints must be alive to open a pipe");
  }
  if (a == b) {
    return Status::InvalidArgument("cannot open a pipe to self");
  }
  if (!profile.fault.Active() && default_fault_.Active()) {
    profile.fault = default_fault_;
  }
  pipes_.insert_or_assign({a.value, b.value}, Pipe(a, b, profile));
  pipes_.insert_or_assign({b.value, a.value}, Pipe(b, a, profile));
  adjacency_[a.value].insert(b.value);
  adjacency_[b.value].insert(a.value);
  return Status::Ok();
}

Status NetworkBase::ClosePipe(PeerId a, PeerId b) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Pipe* forward = FindPipeLocked(a, b);
    Pipe* backward = FindPipeLocked(b, a);
    if (forward == nullptr && backward == nullptr) {
      return Status::NotFound("no pipe between " + a.ToString() + " and " +
                              b.ToString());
    }
    bool was_open = (forward != nullptr && forward->open()) ||
                    (backward != nullptr && backward->open());
    if (forward != nullptr) forward->Close();
    if (backward != nullptr) backward->Close();
    adjacency_[a.value].erase(b.value);
    adjacency_[b.value].erase(a.value);
    if (!was_open) return Status::Ok();
  }
  NotifyPipeClosed(a, b);
  NotifyPipeClosed(b, a);
  return Status::Ok();
}

Status NetworkBase::SetFaultProfile(PeerId a, PeerId b,
                                    const FaultProfile& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  Pipe* forward = FindPipeLocked(a, b);
  Pipe* backward = FindPipeLocked(b, a);
  if (forward == nullptr || backward == nullptr) {
    return Status::NotFound("no pipe between " + a.ToString() + " and " +
                            b.ToString());
  }
  forward->SetFault(fault);
  backward->SetFault(fault);
  return Status::Ok();
}

void NetworkBase::SetDefaultFaultProfile(const FaultProfile& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  default_fault_ = fault;
  for (auto& [key, pipe] : pipes_) {
    if (pipe.open()) pipe.SetFault(fault);
  }
}

bool NetworkBase::HasPipe(PeerId from, PeerId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return HasPipeLocked(from, to);
}

std::vector<PeerId> NetworkBase::Neighbors(PeerId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PeerId> out;
  if (!id.valid() || id.value >= adjacency_.size()) return out;
  for (uint32_t other : adjacency_[id.value]) {
    if (IsAliveLocked(PeerId(other))) out.push_back(PeerId(other));
  }
  return out;
}

size_t NetworkBase::open_pipe_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const std::set<uint32_t>& neighbors : adjacency_) n += neighbors.size();
  return n / 2;  // the adjacency holds both directions
}

Pipe* NetworkBase::FindPipeLocked(PeerId from, PeerId to) {
  auto it = pipes_.find({from.value, to.value});
  return it == pipes_.end() ? nullptr : &it->second;
}

bool NetworkBase::HasPipeLocked(PeerId from, PeerId to) const {
  auto it = pipes_.find({from.value, to.value});
  return it != pipes_.end() && it->second.open();
}

Status NetworkBase::Send(Message message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!IsAliveLocked(message.src)) {
    return Status::Unavailable("sender " + message.src.ToString() +
                               " is not on the network");
  }
  Pipe* pipe = FindPipeLocked(message.src, message.dst);
  if (pipe == nullptr || !pipe->open()) {
    return Status::Unavailable("no open pipe " + message.src.ToString() +
                               " -> " + message.dst.ToString());
  }
  FaultInjector::Decision fault = pipe->NextFault();
  // Charged whatever the draw: a message the injector drops still cost
  // its sender the bytes.
  RecordSend(message, fault);
  if (fault.drop) {
    // The sender cannot tell a dropped message from a delivered one.
    return Status::Ok();
  }
  if (Tracer::Global().enabled()) {
    message.trace_id = Tracer::Global().NoteSend();
  }
  // A duplicate rides right behind the original on the wire; only the
  // original takes the reorder delay.
  const int64_t now = now_us();
  const int copies = fault.duplicate ? 2 : 1;
  Status sent = Status::Ok();
  for (int i = 0; i < copies; ++i) {
    const int64_t arrival = pipe->ScheduleArrival(now, message.WireSize()) +
                            (i == 0 ? fault.extra_delay_us : 0);
    auto copy = i + 1 < copies
                    ? std::make_unique<Message>(message)
                    : std::make_unique<Message>(std::move(message));
    Status queued = Enqueue(std::move(copy), now, arrival);
    if (i == 0) sent = queued;
  }
  return sent;
}

void NetworkBase::Deliver(const Message& message, int64_t sent_us) {
  NetworkPeer* handler = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // In-flight traffic is lost if the destination left or the pipe was
    // closed while the message was on the wire.
    if (IsAliveLocked(message.dst) && HasPipeLocked(message.src, message.dst)) {
      handler = peers_[message.dst.value].handler;
    }
  }
  RecordArrival(message, /*lost=*/handler == nullptr);
  if (handler == nullptr) return;
  // The sojourn is send-to-dispatch on the now_us() scale: virtual wire
  // time (latency plus bandwidth queueing) on the simulator, wall time
  // including any inbox backlog on the threaded runtime. Service time is
  // wall-clock on both, since a simulated handler runs in zero virtual
  // time.
  const bool profiling = profiler_.enabled();
  const CostClass cls =
      profiling ? ClassifyMessage(message) : CostClass::kData;
  if (profiling) profiler_.RecordSojourn(cls, now_us() - sent_us);
  std::chrono::steady_clock::time_point service_start;
  if (profiling) service_start = std::chrono::steady_clock::now();
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    Tracer::SetVirtualTime(now_us());
    uint64_t span = tracer.BeginSpan(message.dst.value, "net.deliver");
    tracer.AddArg(span, "type", MessageTypeName(message.type));
    tracer.AddArg(span, "bytes", std::to_string(message.WireSize()));
    tracer.LinkDelivery(message.trace_id, span);
    handler->HandleMessage(message);
    Tracer::SetVirtualTime(now_us());
    tracer.EndSpan(span);
  } else {
    handler->HandleMessage(message);
  }
  if (profiling) {
    profiler_.RecordService(
        cls, std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - service_start)
                 .count());
  }
}

void NetworkBase::DeliverPipeClosed(PeerId peer, PeerId other) {
  NetworkPeer* handler = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsAliveLocked(peer)) handler = peers_[peer.value].handler;
  }
  if (handler != nullptr) handler->HandlePipeClosed(other);
}

void NetworkBase::RecordSend(const Message& message,
                             const FaultInjector::Decision& fault) {
  stats_.RecordSend(message);
  stats_.RecordFaults(fault.drop, fault.duplicate, fault.extra_delay_us > 0);
  if (CostLedger* own = AttachedLedger(message.src)) own->RecordSend(message);
}

void NetworkBase::RecordArrival(const Message& message, bool lost) {
  if (lost) {
    stats_.RecordDrop();
    return;
  }
  stats_.RecordRecv(message);
  if (CostLedger* own = AttachedLedger(message.dst)) own->RecordRecv(message);
}

}  // namespace codb
