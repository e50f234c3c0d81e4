// FailureDetector: the suspicion → confirmation → eviction state machine.
//
// Pure virtual-time logic — it never touches the network or the clock
// itself; the heartbeat session feeds it HeardFrom()/OnClaim() facts and
// calls Tick(now) on every beacon period, collecting the transitions it
// should act on. That split keeps detection deterministic under the
// discrete-event simulator (fault-injection runs stay seed-reproducible)
// and the machine unit-testable without any network at all.
//
// Per-peer life cycle:
//
//                    HeardFrom (fresh incarnation)
//        ┌────────────────────────────────────────────┐
//        ▼                                            │
//   ┌─────────┐  silent > suspect timeout  ┌─────────┐│
//   │  ALIVE  │ ─────────────────────────▶ │ SUSPECT │┘
//   └─────────┘                            └─────────┘
//        ▲                                      │ silent further
//        │   HeardFrom → kRecovered             │ > evict timeout
//        │   (false suspicion)                  ▼
//        │                                 ┌─────────┐
//        └──── higher incarnation ──────── │  DEAD   │  (terminal per
//              (peer restarted)            └─────────┘   incarnation)
//
// Third-party claims (beacon digests) can accelerate the machine — a
// dead-claim about a peer we already suspect confirms the eviction
// immediately, a dead/suspect claim about an alive peer starts the
// suspicion window — but a mere alive-claim never refreshes last_heard:
// liveness is strictly first-hand, otherwise relayed staleness would
// stretch detection latency past the bound the bench asserts.

#ifndef CODB_MEMBERSHIP_FAILURE_DETECTOR_H_
#define CODB_MEMBERSHIP_FAILURE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "membership/membership.h"
#include "net/peer_id.h"

namespace codb {

class FailureDetector {
 public:
  struct Timeouts {
    int64_t suspect_us = 1'500'000;  // silence before suspicion
    int64_t evict_us = 1'000'000;    // further silence before eviction
    int64_t grace_us = 2'000'000;    // immunity after Track()
  };

  struct Event {
    enum Kind { kSuspected, kRecovered, kEvicted } kind;
    PeerId peer;
    int64_t at_us = 0;
    // For kEvicted: how long the peer had been silent when the verdict
    // landed (detection latency from its last first-hand sign of life).
    int64_t silent_for_us = 0;
  };

  explicit FailureDetector(Timeouts timeouts) : timeouts_(timeouts) {}

  // Starts tracking `peer`. Idempotent; a re-Track of a dead peer with
  // the same incarnation stays dead.
  void Track(PeerId peer, int64_t now_us);
  void Forget(PeerId peer);

  // First-hand sign of life (beacon or ack received directly from the
  // peer) carrying its self-declared incarnation. Returns the resulting
  // events (at most one kRecovered). A message with an incarnation lower
  // than the highest seen for this peer is stale: ignored and counted.
  std::vector<Event> HeardFrom(PeerId peer, uint64_t incarnation,
                               int64_t now_us);

  // Third-party claim from a beacon digest. Never refreshes liveness;
  // may escalate (alive → suspect on a suspect/dead claim, suspect →
  // dead on a dead claim) or resurrect (strictly higher incarnation
  // resets the peer to alive pending first-hand contact).
  std::vector<Event> OnClaim(PeerId peer, uint64_t incarnation,
                             PeerHealth claimed, int64_t now_us);

  // Evaluates every tracked peer's silence against its timeouts.
  // Deterministic: peers are visited in PeerId order.
  std::vector<Event> Tick(int64_t now_us);

  // Overrides the suspicion timeout for one peer (adaptive: base +
  // srtt + 4*rttvar, maintained by the heartbeat session).
  void SetSuspectTimeout(PeerId peer, int64_t timeout_us);

  PeerHealth HealthOf(PeerId peer) const;
  bool IsTracked(PeerId peer) const;
  // Highest incarnation seen for `peer` (0 if untracked).
  uint64_t IncarnationOf(PeerId peer) const;
  std::vector<PeerId> Tracked() const;
  std::vector<PeerId> AlivePeers() const;

  // Lifetime counters, for metrics and bench JSON.
  uint64_t suspicions() const { return suspicions_; }
  uint64_t false_suspicions() const { return false_suspicions_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t stale_rejected() const { return stale_rejected_; }

 private:
  struct PeerState {
    PeerHealth health = PeerHealth::kAlive;
    uint64_t incarnation = 0;
    int64_t last_heard_us = 0;    // last FIRST-HAND sign of life
    int64_t suspected_at_us = 0;  // when the suspicion window opened
    int64_t tracked_since_us = 0;
    int64_t suspect_timeout_us = 0;  // 0 = use the configured default
  };

  int64_t SuspectTimeoutFor(const PeerState& state) const;
  Event Suspect(PeerId peer, PeerState& state, int64_t now_us);
  Event Evict(PeerId peer, PeerState& state, int64_t now_us);

  Timeouts timeouts_;
  std::map<PeerId, PeerState> peers_;
  uint64_t suspicions_ = 0;
  uint64_t false_suspicions_ = 0;
  uint64_t evictions_ = 0;
  uint64_t stale_rejected_ = 0;
};

}  // namespace codb

#endif  // CODB_MEMBERSHIP_FAILURE_DETECTOR_H_
