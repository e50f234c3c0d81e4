// The super-peer (paper, section 4).
//
// A peer with extra experiment-orchestration duties: it reads the
// coordination rules for all peers from a file, broadcasts that file to
// every peer on the network (peers then drop old rules/pipes and build the
// new ones — the super-peer can therefore change the topology at runtime),
// and collects each node's statistical module contents, aggregating them
// into the final statistical report.
//
// Federation (DESIGN.md §11): a large deployment runs several super-peers,
// each owning a *region* (a subset of the node names). A regioned
// super-peer broadcasts and collects only inside its region, then
// exchanges its aggregated digest with the other super-peers over
// kFederationReport, so every super-peer can render the network-wide
// report without any of them having to talk to every node. A super-peer
// may also run its own membership session over its region pipes; an
// evicted node is dropped from the pending-stats count (collection cannot
// hang on a dead node) and skipped by future broadcasts/collections.

#ifndef CODB_CORE_SUPER_PEER_H_
#define CODB_CORE_SUPER_PEER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/link_graph.h"
#include "core/statistics.h"
#include "membership/heartbeat.h"
#include "membership/membership.h"
#include "net/network_interface.h"

namespace codb {

// Network-wide (or region-wide, on a regioned super-peer) aggregation of
// one global update, built from the per-node reports collected.
struct AggregatedUpdateStats {
  FlowId update;
  // Nodes holding a report of the update. For an incremental update that
  // is only the peers its delta reached.
  size_t nodes_reporting = 0;
  int64_t total_virtual_us = -1;   // max complete - min start across nodes
  // The endpoints total_virtual_us was computed from, kept so a federation
  // merge across super-peers recomputes the global span from the extreme
  // endpoints instead of (wrongly) combining per-region spans.
  int64_t min_start_virtual_us = -1;
  int64_t max_complete_virtual_us = -1;
  double total_wall_micros = 0;
  uint64_t data_messages = 0;      // received side, network-wide
  uint64_t data_bytes = 0;
  uint64_t tuples_added = 0;
  uint32_t longest_path_nodes = 0;
  std::map<std::string, RuleTrafficStats> per_rule;  // received per rule

  // Absorbs another super-peer's aggregate of the same update: sums add,
  // maxima max, and the virtual span is recomputed from the merged
  // endpoints.
  void Merge(const AggregatedUpdateStats& other);

  void SerializeTo(WireWriter& writer) const;
  static Result<AggregatedUpdateStats> DeserializeFrom(WireReader& reader);
};

// kFederationReport payload: one super-peer's digest of its region — the
// per-update aggregates plus the point-wise merged metrics snapshot of
// every node that reported.
struct FederationReportPayload {
  std::string super_name;
  uint64_t nodes_reporting = 0;
  std::vector<AggregatedUpdateStats> aggregates;
  MetricsSnapshot metrics;

  std::vector<uint8_t> Serialize() const;
  static Result<FederationReportPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

class SuperPeer : public NetworkPeer {
 public:
  // Joins the network under the given name.
  static std::unique_ptr<SuperPeer> Create(NetworkBase* network,
                                           const std::string& name =
                                               "super-peer");
  ~SuperPeer() override;

  PeerId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Loads the coordination-rules file (text or parsed form).
  Status LoadConfigText(const std::string& text);
  Status LoadConfig(NetworkConfig config);
  const NetworkConfig* config() const { return config_.get(); }

  // Restricts this super-peer to the named nodes: BroadcastConfig and
  // RequestStats only talk to region members. An empty region (the
  // default) means the whole network — the historical single-super mode.
  void SetRegion(std::vector<std::string> node_names);
  const std::set<std::string>& region() const { return region_; }

  // Opens pipes to every alive config node in the region and distributes
  // the current configuration: each peer gets its projected slice (first
  // contact) or a version-keyed delta against the slice version it last
  // acknowledged (DESIGN.md §13). The version is bumped exactly once per
  // call, BEFORE any send, and sends are best-effort: a failed delivery is
  // recorded in LastBroadcastFailures() and healed by the retransmit
  // sweep, never aborting the loop mid-region.
  Status BroadcastConfig();

  // The configuration version of the last broadcast (0 before the first).
  uint64_t config_version() const;

  // The slice version `node_name` last acknowledged (0 if none).
  uint64_t AckedVersionOf(const std::string& node_name) const;

  // Node names whose send failed during the last BroadcastConfig call.
  std::vector<std::string> LastBroadcastFailures() const;

  // Asks every node in the region for its statistical module contents.
  // Collection is asynchronous: run the network, then check
  // CollectionComplete(). Thread-safe against concurrently arriving
  // reports (replies can land on the threaded runtime while the requests
  // are still going out). Peers the membership session evicted are
  // skipped.
  Status RequestStats();
  bool CollectionComplete() const { return pending_stats_.load() == 0; }

  // Node name -> reports, from the last collection. Like the other
  // read-side accessors (Aggregate, FinalReport), call this while the
  // network is quiescent — after Run() returned.
  const std::map<std::string, std::vector<UpdateReport>>& collected() const {
    return collected_;
  }
  // Node name -> metrics snapshot from the same collection: the node's
  // registry plus its `cost.*` and `storage.*` entries (only nodes whose
  // snapshot had any entry appear).
  const std::map<std::string, MetricsSnapshot>& collected_metrics() const {
    return collected_metrics_;
  }

  // Point-wise merge of every collected node's metrics snapshot.
  MetricsSnapshot MergedMetrics() const;

  // Aggregates the collected reports per update.
  std::vector<AggregatedUpdateStats> Aggregate() const;

  // The final statistical report of the demo, rendered from the federated
  // view (FederatedAggregate, FederatedMetrics): this super-peer's region
  // plus every partner's last digest, or just its region when it has no
  // partners.
  std::string FinalReport() const;

  // -- observability --------------------------------------------------------

  // Attaches this super-peer's own cost ledger to the network, so its
  // orchestration traffic (config broadcasts, stats collections,
  // federation exchanges) is classified and accounted like node traffic.
  // Call after Create, while the network is quiescent; off by default.
  void EnableProfiling();
  CostLedger& cost() { return cost_; }
  const CostLedger& cost() const { return cost_; }

  // -- membership -----------------------------------------------------------

  // Runs a heartbeat session over this super-peer's pipes (its region,
  // once BroadcastConfig opened them). An evicted node is removed from
  // any in-flight stats collection so CollectionComplete() cannot hang on
  // a dead node, and is skipped by later broadcasts/collections.
  Status EnableMembership(const MembershipOptions& options);
  HeartbeatSession* membership() { return membership_.get(); }

  // False only for peers the membership session evicted.
  bool IsPresumedAlive(PeerId peer) const;

  // -- federation -----------------------------------------------------------

  // Registers another super-peer as a federation partner (call on both
  // sides). ShareWithFederation sends to — and FederationComplete waits
  // for — exactly these peers.
  void AddFederationPeer(PeerId super);

  // Sends this super-peer's region digest (aggregates + merged metrics)
  // to every federation partner. Call after a collection completed; run
  // the network, then check FederationComplete().
  Status ShareWithFederation();

  // True once a report from every federation partner has arrived.
  bool FederationComplete() const;

  // Partner peer id -> its last region digest.
  const std::map<uint32_t, FederationReportPayload>& federation_reports()
      const {
    return federation_reports_;
  }

  // Own region aggregate merged with every partner's digest: the
  // network-wide per-update statistics.
  std::vector<AggregatedUpdateStats> FederatedAggregate() const;

  // Own merged metrics merged with every partner's snapshot.
  MetricsSnapshot FederatedMetrics() const;

  // -- NetworkPeer ----------------------------------------------------------
  void HandleMessage(const Message& message) override;

 private:
  // Fans the membership session's eviction events into the super-peer
  // (same shape as Node::MembershipFanout).
  struct MembershipFanout : MembershipListener {
    explicit MembershipFanout(SuperPeer* s) : super(s) {}
    void OnPeerEvicted(PeerId peer, int64_t at_us) override;
    SuperPeer* super;
  };

  // Last slice state a peer reported (via kConfigAck or kConfigFetch),
  // keyed by node name so the record survives a peer-id change across a
  // restart.
  struct PeerConfigState {
    uint64_t version = 0;
    uint64_t checksum = 0;
  };

  SuperPeer(NetworkBase* network, std::string name);

  // True when `peer` is inside this super-peer's region (or no region is
  // set) and not evicted.
  bool InRegion(PeerId peer) const;

  void OnPeerEvicted(PeerId peer);

  // Sends `peer_name`'s slice of the current config: a delta against its
  // acknowledged version when the patch base is in the history and the
  // peer's reported checksum matches it, a full slice otherwise.
  // config_mutex_ must be held.
  Status SendConfigTo(PeerId peer, const std::string& peer_name);

  // Retransmit sweep: re-sends the current version to unacknowledged
  // region peers, re-arming until everyone acked, the round cap is hit,
  // or a newer broadcast superseded this generation.
  void ScheduleSweep(uint64_t generation, int round);
  void RetransmitSweep(uint64_t generation, int round);

  void HandleConfigAck(const Message& message);
  void HandleConfigFetch(const Message& message);

  NetworkBase* network_;
  std::string name_;
  PeerId id_;
  uint64_t config_version_ = 0;
  std::unique_ptr<NetworkConfig> config_;
  std::set<std::string> region_;  // empty = whole network

  // Distribution state (DESIGN.md §13), guarded by config_mutex_ against
  // acks/fetches landing on the threaded runtime mid-broadcast.
  mutable std::mutex config_mutex_;
  std::map<std::string, PeerConfigState> acked_;
  // version -> full config at that broadcast, bounded: patch bases for
  // deltas and fetch catch-up. A peer older than the horizon gets a full
  // slice instead.
  std::map<uint64_t, NetworkConfig> config_history_;
  static constexpr size_t kConfigHistoryLimit = 16;
  std::unique_ptr<LinkGraph> config_graph_;  // of config_, for cycle flags
  std::vector<std::string> broadcast_failures_;
  uint64_t broadcast_generation_ = 0;
  // Guards the sweep timer callbacks against a destroyed super-peer (the
  // network may still hold scheduled closures).
  std::shared_ptr<std::atomic<bool>> alive_ =
      std::make_shared<std::atomic<bool>>(true);

  // Set once in EnableMembership, then immutable (read without locks; the
  // session serializes internally — same discipline as Node).
  std::shared_ptr<HeartbeatSession> membership_;
  std::unique_ptr<MembershipFanout> membership_fanout_;

  std::atomic<size_t> pending_stats_{0};
  uint64_t stats_request_id_ = 0;
  mutable std::mutex collected_mutex_;  // guards collected_* and awaiting_
                                        // against mid-request replies on
                                        // the threaded runtime
  std::set<uint32_t> awaiting_;  // peers the current collection waits on
  std::map<std::string, std::vector<UpdateReport>> collected_;
  std::map<std::string, MetricsSnapshot> collected_metrics_;

  std::set<uint32_t> federation_peers_;
  std::map<uint32_t, FederationReportPayload> federation_reports_;

  // The super-peer's own wire-cost accounting (idle until
  // EnableProfiling); the region nodes' ledgers arrive as cost.* entries
  // inside their collected metrics snapshots.
  CostLedger cost_;
};

}  // namespace codb

#endif  // CODB_CORE_SUPER_PEER_H_
