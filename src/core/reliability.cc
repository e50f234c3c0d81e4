#include "core/reliability.h"

#include "util/logging.h"

namespace codb {

namespace {

// Each retransmission waits this many times longer than the one before.
constexpr int64_t kBackoffFactor = 2;

}  // namespace

ReliableSender::ReliableSender(NetworkBase* network,
                               ReliabilityOptions options, GiveUpFn on_give_up,
                               Counter* retransmits, Counter* give_ups)
    : shared_(std::make_shared<Shared>()) {
  shared_->network = network;
  shared_->options = options;
  shared_->on_give_up = std::move(on_give_up);
  shared_->retransmits = retransmits;
  shared_->give_ups = give_ups;
}

Status ReliableSender::Send(Message message, const FlowId& flow, bool basic) {
  Shared& s = *shared_;
  if (!s.options.enabled) {
    return s.network->Send(std::move(message));
  }
  Key key;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    uint32_t& next = s.next_seq[{flow, message.dst.value}];
    message.seq = ++next;
    key = Key{flow, message.dst.value, message.seq};
    Pending entry;
    entry.message = message;
    entry.basic = basic;
    entry.next_backoff_us = s.options.retransmit_base_us * kBackoffFactor;
    s.pending.emplace(key, std::move(entry));
  }
  Status sent = s.network->Send(std::move(message));
  if (!sent.ok()) {
    // No pipe: nothing to retransmit over. The owner sees the failure and
    // books no deficit, exactly as without reliability. The stamp is
    // rolled back too — receivers deliver contiguous seqs in order, so a
    // never-sent number would be a permanent gap stalling the channel.
    std::lock_guard<std::mutex> lock(s.mutex);
    s.pending.erase(key);
    uint32_t& next = s.next_seq[{flow, key.dst}];
    if (next == key.seq) --next;
    return sent;
  }
  Arm(shared_, key, s.options.retransmit_base_us);
  return sent;
}

void ReliableSender::Arm(const std::shared_ptr<Shared>& shared,
                         const Key& key, int64_t delay_us) {
  std::weak_ptr<Shared> weak = shared;
  shared->network->ScheduleAfter(delay_us, [weak, key] {
    std::shared_ptr<Shared> shared = weak.lock();
    if (shared == nullptr) return;  // owning manager is gone
    Message resend;
    FlowId give_up_flow;
    PeerId give_up_dst;
    bool give_up_basic = false;
    bool gave_up = false;
    int64_t next_delay = 0;
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      auto it = shared->pending.find(key);
      if (it == shared->pending.end()) return;  // receipt arrived
      Pending& entry = it->second;
      if (entry.retries >= shared->options.max_retries) {
        gave_up = true;
        give_up_flow = key.flow;
        give_up_dst = PeerId(key.dst);
        give_up_basic = entry.basic;
        if (shared->give_ups != nullptr) shared->give_ups->Add();
        shared->pending.erase(it);
      } else {
        ++entry.retries;
        resend = entry.message;
        // Mark the copy so the cost ledger charges it to the retransmit
        // class; the entry itself stays unmarked (it was a first send).
        resend.retransmit = true;
        next_delay = entry.next_backoff_us;
        entry.next_backoff_us *= kBackoffFactor;
        if (shared->retransmits != nullptr) shared->retransmits->Add();
      }
    }
    if (gave_up) {
      CODB_LOG(kWarning) << "reliability: giving up on "
                         << give_up_flow.ToString() << " seq " << key.seq
                         << " to " << give_up_dst.ToString();
      if (shared->on_give_up) {
        shared->on_give_up(give_up_flow, give_up_dst, give_up_basic);
      }
      return;
    }
    shared->network->Send(std::move(resend));
    Arm(shared, key, next_delay);
  });
}

void ReliableSender::OnDeliveryAck(const FlowId& flow, PeerId from,
                                   uint32_t acked_seq) {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  shared_->pending.erase(Key{flow, from.value, acked_seq});
}

void ReliableSender::OnPeerLost(PeerId peer) {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  for (auto it = shared_->pending.begin(); it != shared_->pending.end();) {
    if (it->first.dst == peer.value) {
      it = shared_->pending.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t ReliableSender::pending_count() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->pending.size();
}

DupFilter::Verdict DupFilter::Check(const FlowId& flow, PeerId src,
                                    uint32_t seq) {
  if (seq == 0) return Verdict::kDeliver;
  Channel& channel = channels_[{flow, src.value}];
  if (seq < channel.next) return Verdict::kDuplicate;
  if (seq > channel.next) {
    // A duplicate of an already-parked arrival needs no second parking.
    return channel.held.count(seq) != 0 ? Verdict::kDuplicate
                                        : Verdict::kHold;
  }
  ++channel.next;
  return Verdict::kDeliver;
}

void DupFilter::Hold(const FlowId& flow, PeerId src, Message message) {
  Channel& channel = channels_[{flow, src.value}];
  channel.held.emplace(message.seq, std::move(message));
}

std::optional<Message> DupFilter::NextReady(const FlowId& flow, PeerId src) {
  auto channel_it = channels_.find({flow, src.value});
  if (channel_it == channels_.end()) return std::nullopt;
  Channel& channel = channel_it->second;
  auto it = channel.held.find(channel.next);
  if (it == channel.held.end()) return std::nullopt;
  Message message = std::move(it->second);
  channel.held.erase(it);
  return message;
}

uint64_t DupFilter::held_count() const {
  uint64_t total = 0;
  for (const auto& [key, channel] : channels_) {
    total += channel.held.size();
  }
  return total;
}

}  // namespace codb
