// A coDB database peer: the first-level architecture of Figure 1.
//
//   Node = P2P layer (UI surface + DBM + JXTA layer + Wrapper)
//        + Local Database (optional: mediator nodes have none)
//        + Database Schema (always present)
//
// The DBM (database manager) is realized by the update and query managers;
// the JXTA layer is the Network binding plus discovery; the UI is the
// Report()/DiscoveryView() text surface the examples print. Nodes connect
// to the network by creating pipes to the nodes they have coordination
// rules with — several rules share one pipe, and a pipe without rules is
// closed (paper, section 3).

#ifndef CODB_CORE_NODE_H_
#define CODB_CORE_NODE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/link_graph.h"
#include "core/query_manager.h"
#include "core/statistics.h"
#include "core/update_manager.h"
#include "membership/heartbeat.h"
#include "membership/membership.h"
#include "net/discovery.h"
#include "net/network_interface.h"
#include "storage/storage.h"
#include "wrapper/wrapper.h"

namespace codb {

class Node : public NetworkPeer {
 public:
  struct Options {
    UpdateManager::Options update;
    LinkProfile link_profile;  // profile of the pipes this node opens
    // At-least-once delivery for both managers (core/reliability.h).
    ReliabilityOptions reliability;
    // Skip the discovery announcement flood. Discovery costs O(n·E)
    // messages and O(n) advertisement cache per node — the first wall a
    // thousand-peer deployment hits — and membership-era benches do not
    // need the discovery view.
    bool quiet_discovery = false;
  };

  // Creates the node, joins the network, and announces itself. `schema`
  // becomes both the LDB catalog and the exported DBS (mediators get a
  // transient store instead of an LDB). (Overload instead of a defaulted
  // Options argument: Options has member initializers, which are
  // late-parsed and cannot back a default argument of the enclosing
  // class.)
  static Result<std::unique_ptr<Node>> Create(NetworkBase* network,
                                              const std::string& name,
                                              DatabaseSchema schema,
                                              bool mediator, Options options);
  static Result<std::unique_ptr<Node>> Create(NetworkBase* network,
                                              const std::string& name,
                                              DatabaseSchema schema,
                                              bool mediator = false) {
    return Create(network, name, std::move(schema), mediator, Options());
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  PeerId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool is_mediator() const { return wrapper_->is_mediator(); }

  // The node's store, for seeding experiment data. Touch it only while
  // the network is quiescent (before traffic starts / after Run()); the
  // node's own handlers mutate it concurrently otherwise.
  Database& database() { return wrapper_->storage(); }
  const Database& database() const { return wrapper_->storage(); }

  // Applies a network configuration locally: drops rules/pipes that
  // disappeared, opens pipes for rules involving this node, rebuilds the
  // link graph and the DBM. Older versions than the current one are
  // ignored. (The super-peer delivers per-node slices via kConfigSlice and
  // kConfigDelta — DESIGN.md §13; tests and examples may still call this
  // directly with a full config.)
  Status ApplyConfig(const NetworkConfig& config, uint64_t version);

  bool has_config() const { return config_ != nullptr; }
  const NetworkConfig* config() const { return config_.get(); }
  const LinkGraph* link_graph() const { return link_graph_.get(); }
  // Version of the currently applied configuration (0 before the first).
  uint64_t config_version() const;

  // -- DBM operations ------------------------------------------------------

  // Batch materialization: starts a global update rooted here. The
  // optional callback fires exactly once, when the diffusing computation
  // terminates at this root.
  Result<FlowId> StartGlobalUpdate(
      UpdateManager::CompletionFn on_complete = nullptr);

  // Refresh update: every node first drops its imported tuples, then the
  // network re-derives everything — the batch form of deletion
  // propagation (data deleted at its source does not come back). Also
  // resets the export memory network-wide, restating every export.
  Result<FlowId> StartGlobalRefresh(
      UpdateManager::CompletionFn on_complete = nullptr);

  // Inserts rows into a local base relation, remembered as the pending
  // delta for the next incremental update (Wrapper::InsertLocal). Touch
  // only while this node is not mid-flow, like database().
  Status InsertLocal(const std::string& relation,
                     const std::vector<Tuple>& rows);

  // Incremental (semi-naive) global update seeded by the pending delta
  // accumulated through InsertLocal: work proportional to the delta, not
  // the store (DESIGN.md §14). Requires a prior full/refresh update to
  // have synchronized the network; `refresh` remains the full-semantics
  // oracle. Only the peers the delta reaches take part. An empty pending
  // delta is legal: the flow completes at once without sending anything.
  Result<FlowId> StartIncrementalUpdate(
      UpdateManager::CompletionFn on_complete = nullptr);

  // Query-time answering: distributed fetch + local evaluation.
  Result<FlowId> StartQuery(const ConjunctiveQuery& query,
                            QueryManager::ProgressFn on_progress = nullptr);
  bool QueryDone(const FlowId& query) const;
  Result<std::vector<Tuple>> QueryAnswers(const FlowId& query) const;
  // Null-free (certain) answers only; see QueryManager::CertainAnswers.
  Result<std::vector<Tuple>> CertainQueryAnswers(const FlowId& query) const;

  // Purely local evaluation (what a query costs after a global update).
  Result<std::vector<Tuple>> LocalQuery(const ConjunctiveQuery& query) const;

  // Violations of this node's own key constraints (empty = consistent).
  // While non-empty the node exports nothing (paper principle (d)).
  std::vector<std::string> ConsistencyViolations() const;

  // Attaches a journal sink recording every imported tuple; see
  // relation/wal.h. The sink is not owned and must outlive the node.
  void AttachJournal(JournalSink* journal) {
    wrapper_->AttachJournal(journal);
  }

  // Turns on durable, crash-safe persistence: the store is recovered from
  // options.directory (checkpoint + WAL tail), imported tuples are logged
  // to the file-backed WAL from then on, and checkpoints are cut per
  // `options.checkpoint_every`. Mediators hold only transient relay data
  // and refuse. Call after Create and after seeding local base data —
  // the first enablement cuts a checkpoint covering the seed.
  Status EnableDurability(const StorageOptions& options);
  DurableStorage* durable_storage() { return durable_.get(); }
  const DurableStorage* durable_storage() const { return durable_.get(); }

  // -- membership ----------------------------------------------------------

  // Turns on the liveness layer: a HeartbeatSession beaconing to every
  // pipe neighbour, with this node wired in as the eviction fan-out (an
  // evicted peer is treated exactly like a closed pipe: both managers
  // cancel retransmissions and deficits toward it, and it stops counting
  // as an acquaintance for new flows). Call after Create, before traffic;
  // the session starts beaconing immediately (maintenance events only —
  // Run() semantics for existing tests are unchanged).
  Status EnableMembership(const MembershipOptions& options);
  HeartbeatSession* membership() { return membership_.get(); }
  const HeartbeatSession* membership() const { return membership_.get(); }

  // False only for peers the membership layer evicted (always true when
  // membership is off). The managers consult this before counting a peer
  // as a reachable acquaintance.
  bool IsPresumedAlive(PeerId peer) const;

  // -- observability -------------------------------------------------------

  // Attaches the node's cost ledger (statistics().cost()) to the network,
  // so every message this node sends or receives is classified and its
  // bytes accounted per subsystem class (obs/cost_ledger.h). The per-class
  // totals then ride the kStatsReport trailer to the super-peer. Call
  // after Create, while the network is quiescent; off by default.
  void EnableProfiling();

  // -- introspection -------------------------------------------------------

  UpdateManager* update_manager() { return update_manager_.get(); }
  const UpdateManager* update_manager() const {
    return update_manager_.get();
  }
  QueryManager* query_manager() { return query_manager_.get(); }
  StatisticsModule& statistics() { return statistics_; }
  const StatisticsModule& statistics() const { return statistics_; }
  DiscoveryService& discovery() { return *discovery_; }

  // The textual "UI": schema, pipes, links, per-update reports (Figure 1's
  // UI module / Figure 2's query window).
  std::string Report() const;
  // Acquaintances vs merely-discovered peers (Figure 3's window).
  std::string DiscoveryView() const;

  // -- NetworkPeer ----------------------------------------------------------

  void HandleMessage(const Message& message) override;
  void HandlePipeClosed(PeerId other) override;

 private:
  // Adapter fanning membership transitions into the node. A separate
  // object (not Node inheriting MembershipListener) so the listener
  // surface stays out of the node's public API.
  struct MembershipFanout : MembershipListener {
    explicit MembershipFanout(Node* n) : node(n) {}
    void OnPeerEvicted(PeerId peer, int64_t at_us) override;
    Node* node;
  };

  Node(NetworkBase* network, std::string name);

  void AnnounceSelf();

  // ApplyConfig body, mutex_ held. `cyclic_rules`/`has_any_cycle` carry
  // the super-peer's cycle closure for a projected slice (the slice alone
  // cannot see cycles running through other regions of the network);
  // nullptr means `config` is a full configuration and the link graph
  // computes its own SCCs.
  Status ApplyConfigLocked(const NetworkConfig& config, uint64_t version,
                           const std::set<std::string>* cyclic_rules,
                           bool has_any_cycle);

  // Handlers of the delta/projected distribution protocol (DESIGN.md §13).
  void HandleConfigSlice(const Message& message);
  void HandleConfigDelta(const Message& message);
  // Reports the currently-held slice state back to the super-peer.
  void SendConfigAck(PeerId to);
  // Asks `to` for a catch-up (gap or checksum divergence detected).
  void SendConfigFetch(PeerId to);

  // Re-attempts pipes that failed to open (or whose acquaintance was not
  // on the network yet) during the last ApplyConfig; called on discovery
  // and membership traffic, mutex_ held.
  void RetryPendingPipes();

  // Eviction fan-out: same cleanup as a pipe-closed notification — both
  // managers cancel retransmissions/deficits toward the dead peer.
  void OnPeerEvicted(PeerId peer);

  // Routes a flow-scoped message (acks and receipts included) to the
  // engine of its peeked scope, inline under mutex_.
  void DispatchFlowMessage(const Message& message);

  // Serializes the public API and the eviction fan-out against the node's
  // own message handlers (DESIGN.md §10): everything that touches the
  // store, the export memory, the pending delta or the journal holds it.
  // On the threaded runtime an initiator keeps receiving replies while
  // StartGlobalUpdate / StartQuery are still mutating its state.
  // Recursive because the single-threaded simulator delivers pipe-closed
  // notifications synchronously from within a handler.
  mutable std::recursive_mutex mutex_;

  NetworkBase* network_;
  std::string name_;
  PeerId id_;

  std::unique_ptr<Database> ldb_;  // null for mediators
  // Set once in EnableMembership (before traffic), then immutable: the
  // heartbeat paths read it without mutex_ so the session→node lock
  // order is never reversed.
  std::shared_ptr<HeartbeatSession> membership_;
  std::unique_ptr<MembershipFanout> membership_fanout_;
  std::unique_ptr<Wrapper> wrapper_;
  std::unique_ptr<DurableStorage> durable_;  // null until EnableDurability
  std::unique_ptr<DiscoveryService> discovery_;
  StatisticsModule statistics_;
  std::unique_ptr<NullMinter> minter_;
  Options options_;

  uint64_t config_version_ = 0;
  // Canonical checksum of config_ — the patch base identity the node
  // reports in acks/fetches and verifies deltas against.
  uint64_t config_checksum_ = 0;
  std::unique_ptr<NetworkConfig> config_;
  std::unique_ptr<LinkGraph> link_graph_;
  // Acquaintances whose pipe could not be opened (or who were not on the
  // network) at ApplyConfig time; retried on discovery/membership events.
  std::set<std::string> pending_pipe_retries_;
  // Mirror of !pending_pipe_retries_.empty(), readable without mutex_ so
  // the heartbeat fast path can skip the lock.
  std::atomic<bool> has_pending_pipe_retries_{false};
  std::unique_ptr<UpdateManager> update_manager_;
  std::unique_ptr<QueryManager> query_manager_;
  uint64_t update_seq_ = 0;  // survive manager rebuilds: ids stay unique
  uint64_t query_seq_ = 0;
  // Cross-update export memory (DESIGN.md §14): node-owned for the same
  // reason as update_seq_ — reconfigurations rebuild the manager, but
  // what was already exported to each importer must not be forgotten.
  ExportMemory export_memory_;
  std::set<uint32_t> rule_pipes_;  // peers we opened pipes to, per config
};

}  // namespace codb

#endif  // CODB_CORE_NODE_H_
