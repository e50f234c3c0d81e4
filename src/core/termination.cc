#include "core/termination.h"

#include "util/logging.h"

namespace codb {

void TerminationDetector::StartRoot(const FlowId& flow,
                                    TerminatedFn on_terminated) {
  FlowState& state = flows_[flow];
  state.engaged = true;
  state.root = true;
  state.on_terminated = std::move(on_terminated);
}

void TerminationDetector::OnBasicMessage(const FlowId& flow, PeerId src) {
  FlowState& state = flows_[flow];
  if (!state.engaged) {
    state.engaged = true;
    state.parent = src;
    state.parent_ack_pending = true;
  } else {
    send_ack_(src, flow);
  }
}

void TerminationDetector::OnSent(const FlowId& flow, PeerId dst) {
  FlowState& state = flows_[flow];
  ++state.deficit;
  ++state.deficit_by_peer[dst.value];
}

void TerminationDetector::OnAck(const FlowId& flow, PeerId from) {
  auto it = flows_.find(flow);
  if (it == flows_.end() || it->second.deficit == 0) {
    CODB_LOG(kWarning) << "termination: stray ack for " << flow.ToString();
    return;
  }
  // The flow-wide deficit only moves together with the sender's bucket:
  // an ack that cannot be matched to an outstanding message towards
  // `from` (duplicate, misrouted, or already cancelled by OnPeerLost)
  // must not drain the total past the real outstanding count, or the
  // root would fire termination early.
  auto bucket = it->second.deficit_by_peer.find(from.value);
  if (bucket == it->second.deficit_by_peer.end() || bucket->second == 0) {
    CODB_LOG(kWarning) << "termination: unmatched ack from "
                       << from.ToString() << " for " << flow.ToString();
    return;
  }
  --bucket->second;
  --it->second.deficit;
}

void TerminationDetector::CancelOne(const FlowId& flow, PeerId dst) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  auto bucket = it->second.deficit_by_peer.find(dst.value);
  if (bucket == it->second.deficit_by_peer.end() || bucket->second == 0) {
    return;
  }
  --bucket->second;
  if (it->second.deficit > 0) --it->second.deficit;
}

void TerminationDetector::Abort(const FlowId& flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& state = it->second;
  state.deficit = 0;
  state.deficit_by_peer.clear();
  if (state.root) {
    // Mark terminated without firing the callback: the caller reports the
    // abort through its own channel, and a late deficit drain must not
    // fire on_terminated a second time.
    state.terminated = true;
    return;
  }
  if (state.parent_ack_pending) {
    send_ack_(state.parent, flow);
    state.parent_ack_pending = false;
  }
  state.engaged = false;
  state.parent = PeerId();
}

void TerminationDetector::OnPeerLost(PeerId peer) {
  for (auto& [flow, state] : flows_) {
    auto it = state.deficit_by_peer.find(peer.value);
    if (it != state.deficit_by_peer.end()) {
      uint64_t cancelled = it->second;
      state.deficit -= cancelled < state.deficit ? cancelled : state.deficit;
      state.deficit_by_peer.erase(it);
    }
    if (state.engaged && !state.root && state.parent == peer) {
      // Orphaned: the deferred ack has nowhere to go; forget it, and
      // clear the parent so a later message from the same peer id is a
      // fresh engagement rather than a stale orphan.
      state.parent_ack_pending = false;
      state.parent = PeerId();
      if (state.deficit == 0) {
        // Nothing outstanding either: disengage now instead of waiting
        // for the next MaybeQuiesce that may never be driven.
        state.engaged = false;
        state.deficit_by_peer.clear();
      }
    }
  }
}

void TerminationDetector::MaybeQuiesce() {
  for (auto& [flow, state] : flows_) {
    if (state.engaged && state.deficit == 0) {
      Quiesce(flow, state);
    }
  }
}

void TerminationDetector::MaybeQuiesce(const FlowId& flow) {
  auto it = flows_.find(flow);
  if (it != flows_.end() && it->second.engaged && it->second.deficit == 0) {
    Quiesce(flow, it->second);
  }
}

void TerminationDetector::Quiesce(const FlowId& flow, FlowState& state) {
  if (state.root) {
    if (!state.terminated) {
      state.terminated = true;
      if (state.on_terminated) state.on_terminated(flow);
    }
    return;
  }
  if (state.parent_ack_pending) {
    send_ack_(state.parent, flow);
    state.parent_ack_pending = false;
  }
  state.engaged = false;
  state.deficit_by_peer.clear();
}

bool TerminationDetector::IsEngaged(const FlowId& flow) const {
  auto it = flows_.find(flow);
  return it != flows_.end() && it->second.engaged;
}

bool TerminationDetector::IsTerminated(const FlowId& flow) const {
  auto it = flows_.find(flow);
  return it != flows_.end() && it->second.terminated;
}

uint64_t TerminationDetector::DeficitOf(const FlowId& flow) const {
  auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.deficit;
}

}  // namespace codb
