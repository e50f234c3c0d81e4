// Testbed: stands up a complete simulated coDB deployment from a generated
// (or hand-written) network description — nodes, seed data, super-peer(s),
// config broadcast — ready for experiments. Shared by the test suite, the
// benchmark harness and the examples. Its traffic counts are the
// network's cost ledger (cost()), whatever Options::profiling says.

#ifndef CODB_WORKLOAD_TESTBED_H_
#define CODB_WORKLOAD_TESTBED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/super_peer.h"
#include "membership/membership.h"
#include "net/fault.h"
#include "net/network.h"
#include "net/threaded_network.h"
#include "storage/storage_options.h"
#include "workload/topology_gen.h"

namespace codb {

class Testbed {
 public:
  struct Options {
    // Options of every spawned node (core/node.h).
    Node::Options node;
    // false: deterministic discrete-event simulator (the default).
    // true: ThreadedNetwork — one real delivery thread per peer.
    bool threaded = false;
    // When storage.directory is non-empty, every non-mediator node gets
    // durable storage under <directory>/<node name> (crash-kill via
    // KillNode, disk-backed restart via RestartNode).
    StorageOptions storage;
    // Fault profile installed as the network default AFTER the initial
    // settle run, so discovery and the config broadcast stay fault-free
    // while all experiment traffic rides the unreliable network.
    FaultProfile fault;
    // Membership layer (DESIGN.md §11): when true every node — and every
    // super-peer — runs a HeartbeatSession after the deployment settled.
    // Beacon traffic rides the maintenance lane, so Run()-driven tests
    // are unaffected; advance time with RunFor/RunUntil to let suspicion
    // and eviction fire.
    bool membership = false;
    MembershipOptions membership_options;
    // Observability (DESIGN.md §12): when true, every node and
    // super-peer attaches its own cost ledger and the event-loop profiler
    // is enabled — all BEFORE the config broadcast, so the O(n²) settle
    // traffic is accounted per peer. The network's own ledger (cost())
    // counts every message either way; this changes none of its counts.
    bool profiling = false;
    // Number of federated super-peers. 1 (the default) is the historical
    // single super-peer owning the whole network. With S > 1 the node
    // declarations are split into S contiguous regions, each owned by one
    // super-peer; the supers exchange kFederationReport digests after a
    // collection, so CollectStats still yields the network-wide view
    // (from any super via FederatedAggregate/FinalReport).
    int super_peers = 1;
  };

  // Builds the network, creates one Node per declaration, seeds the data,
  // creates the super-peer(s), broadcasts the configuration, and runs the
  // network until the configuration has settled.
  static Result<std::unique_ptr<Testbed>> Create(
      const GeneratedNetwork& generated, Options options);
  static Result<std::unique_ptr<Testbed>> Create(
      const GeneratedNetwork& generated) {
    return Create(generated, Options());
  }

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  NetworkBase& network() { return *network_; }
  // The network's cost ledger: every message on the network, classified
  // and accounted, without needing a stats collection.
  CostLedger& cost() { return network_->stats(); }
  const CostLedger& cost() const { return network_->stats(); }
  SuperPeer& super_peer() { return *super_peers_.front(); }
  SuperPeer& super_peer(size_t i) { return *super_peers_[i]; }
  size_t super_peer_count() const { return super_peers_.size(); }
  // The super-peer owning `name`'s region (the only one in single-super
  // deployments); null for unknown names.
  SuperPeer* super_of(const std::string& name);

  Node* node(const std::string& name);
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  // Nodes taken down by KillNode or SilentKillNode, in kill order. A
  // silently killed node is still on the network and may still send.
  const std::vector<std::unique_ptr<Node>>& killed_nodes() const {
    return graveyard_;
  }

  // Runs a global update from `initiator` to completion (network
  // quiescence) and returns the update id.
  Result<FlowId> RunGlobalUpdate(const std::string& initiator);

  // Same for a refresh update (drop-imported + full re-derivation: the
  // incremental-equivalence oracle).
  Result<FlowId> RunGlobalRefresh(const std::string& initiator);

  // Same for an incremental update seeded by `initiator`'s pending delta
  // (Node::InsertLocal since the last incremental update).
  Result<FlowId> RunIncrementalUpdate(const std::string& initiator);

  // True if every node that joined `update` observed completion. Peers an
  // incremental flow never reached are not joined: its data engages only
  // the peers the delta reaches.
  bool AllComplete(const FlowId& update) const;

  // Every node's current store, for oracle comparison.
  NetworkInstance Snapshot() const;

  // Collects statistics into the super-peer(s) (runs the network). With
  // several super-peers the regions' digests are then exchanged over
  // kFederationReport, so super_peer().FederatedAggregate() holds the
  // network-wide view afterwards.
  Status CollectStats();

  // Installs `fault` on the pipe between two named nodes (both
  // directions). `FaultProfile::Partition()` scripts a silent partition:
  // the link eats everything but neither side learns the pipe died.
  Status SetFault(const std::string& a, const std::string& b,
                  const FaultProfile& fault);

  // Crash-kills a node: it leaves the network without any shutdown
  // courtesy (pipes snap, in-flight messages are dropped) — exactly what
  // its peers see when a process dies. The node object is parked, not
  // destroyed: on the threaded runtime a delivery thread may still be
  // inside its handler.
  Status KillNode(const std::string& name);

  // Silently kills a node: every one of its pipes is partitioned (both
  // directions) and its beaconing stops, but NO pipe-closed notification
  // fires — peers cannot tell the death from a slow link and must
  // *detect* it through the membership layer. This is the failure mode
  // the suspicion/eviction machinery exists for; without membership the
  // rest of the network would wait on the victim forever.
  Status SilentKillNode(const std::string& name);

  // Restarts a previously killed node from its declaration. The store is
  // NOT re-seeded — with durable storage the content comes back from disk
  // (checkpoint + WAL replay); without it the node restarts empty. The
  // configuration is re-broadcast (every super-peer covers its region) so
  // the whole network rebuilds pipes to the new peer id, and the network
  // runs until settled.
  Result<Node*> RestartNode(const std::string& name);

 private:
  Testbed() = default;

  Result<Node*> SpawnNode(const NodeDecl& decl, bool seed);

  GeneratedNetwork generated_;
  Options options_;
  std::unique_ptr<NetworkBase> network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::string, Node*> by_name_;
  std::vector<std::unique_ptr<Node>> graveyard_;  // killed nodes
  std::vector<std::unique_ptr<SuperPeer>> super_peers_;
  std::map<std::string, size_t> region_of_;  // node name -> super index
  // Silently-killed peers still occupy their network slot (no Leave was
  // issued); RestartNode must evict the zombie before re-joining the name.
  std::map<std::string, PeerId> silently_dead_;
};

}  // namespace codb

#endif  // CODB_WORKLOAD_TESTBED_H_
