// Membership & liveness layer (DESIGN.md §11).
//
// The protocols below this layer only ever *observe* churn: a pipe dies
// and the termination detector patches deficits after the fact. A peer
// that dies silently — process crash behind a partition, for instance —
// produces no pipe event at all, and every in-flight flow towards it
// burns the full retransmission give-up window. This subsystem turns
// "unreachable" into a first-class state:
//
//   * HeartbeatSession (heartbeat.h) beacons over the existing
//     NetworkInterface on a configurable period, piggybacking incarnation
//     numbers and a compact digest of the sender's view of its peers;
//   * RttEstimator (rtt.h) keeps an EWMA + variance per peer (à la
//     TCP / zg_choir's PZGRoundTripTimeAverager) and feeds adaptive
//     suspicion timeouts plus per-peer RTT gauges;
//   * FailureDetector (failure_detector.h) runs the suspicion →
//     confirmation → eviction state machine, deterministic under the
//     virtual clock, and fans eviction events out through
//     MembershipListener into the node's managers, termination detector
//     and reliability layer.
//
// Everything is off by default: a node without an enabled session sends
// no beacons and keeps the historical behaviour bit-for-bit.

#ifndef CODB_MEMBERSHIP_MEMBERSHIP_H_
#define CODB_MEMBERSHIP_MEMBERSHIP_H_

#include <cstdint>

#include "net/peer_id.h"

namespace codb {

// Tri-state liveness verdict a tracker holds about a tracked peer.
enum class PeerHealth : uint8_t {
  kAlive = 0,    // heard from it within the suspicion timeout
  kSuspect = 1,  // silent too long; confirmation window running
  kDead = 2,     // evicted (terminal for this incarnation)
};

const char* PeerHealthName(PeerHealth health);

struct MembershipOptions {
  // Beacon period. Everything else scales with it; the defaults aim at a
  // detection latency of ~3 periods for a silently killed peer.
  int64_t period_us = 1'000'000;

  // A peer is suspected once nothing was heard from it for
  // `suspect_after_periods` beacon periods plus its adaptive RTT margin
  // (srtt + 4*rttvar). 1.5 periods = one lost beacon plus slack.
  double suspect_after_periods = 1.5;

  // A suspect is evicted after this much additional silence. Thresholds
  // are evaluated on every beacon tick AND on every arriving beacon/ack,
  // so in an active deployment detection lands close to
  // (suspect_after + evict_after) periods after the last beacon; a peer
  // with no other live neighbours pays up to one extra period per
  // transition for tick quantization.
  double evict_after_periods = 1.0;

  // This node's incarnation number. A restarted node should come back
  // with a higher incarnation; beacons with a lower incarnation than the
  // highest one seen for that peer are rejected as stale.
  uint64_t incarnation = 1;
};

// Fan-out interface for membership transitions. Implemented by the node
// (to cancel retransmissions, deficits and link state towards dead
// peers), by the super-peer (to drop dead region members from statistics
// collection), and by tests/benches (to log detection latencies).
// Callbacks run on the session's handler context — for a node that is
// its message-handler context, so the usual locking rules apply.
class MembershipListener {
 public:
  virtual ~MembershipListener() = default;
  virtual void OnPeerSuspected(PeerId peer, int64_t at_us) {
    (void)peer;
    (void)at_us;
  }
  // A suspected peer was heard from again (a false suspicion).
  virtual void OnPeerRecovered(PeerId peer, int64_t at_us) {
    (void)peer;
    (void)at_us;
  }
  virtual void OnPeerEvicted(PeerId peer, int64_t at_us) {
    (void)peer;
    (void)at_us;
  }
};

inline const char* PeerHealthName(PeerHealth health) {
  switch (health) {
    case PeerHealth::kAlive:
      return "alive";
    case PeerHealth::kSuspect:
      return "suspect";
    case PeerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

}  // namespace codb

#endif  // CODB_MEMBERSHIP_MEMBERSHIP_H_
