// Delta/projected config distribution (DESIGN.md §13).
//
// The tentpole claims under test:
//   * a node configured from its projected slice behaves byte-identically
//     to one configured from the full rule file (the projection-closure
//     argument: managers only ever ask the link graph about incident
//     rules, and cycle answers ride the super-peer's closure),
//   * version-keyed patches apply exactly or not at all (pre/post-state
//     checksums), with the receiver falling back to a fetch on mismatch,
//   * a partial broadcast failure bumps the version exactly once and the
//     retransmit sweep heals the laggards — no mixed-version end states,
//   * every peer converges to the latest version on a lossy network, and
//   * a rejoiner (silent kill + restart) catches up through the
//     gap-detection -> kConfigFetch -> full-slice path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/config_distribution.h"
#include "core/link_graph.h"
#include "net/network.h"
#include "query/parser.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

// Stable per-relation order, as in the differential concurrency suite.
NetworkInstance Canonical(NetworkInstance instances) {
  for (auto& [node, instance] : instances) {
    for (auto& [relation, rows] : instance) {
      std::sort(rows.begin(), rows.end());
    }
  }
  return instances;
}

Result<std::unique_ptr<Node>> SpawnNode(NetworkBase* network,
                                        const NodeDecl& decl) {
  DatabaseSchema schema;
  for (const RelationSchema& rel : decl.relations) {
    CODB_RETURN_IF_ERROR(schema.AddRelation(rel));
  }
  return Node::Create(network, decl.name, std::move(schema), decl.mediator);
}

void Seed(Node* node, const GeneratedNetwork& generated) {
  auto it = generated.seeds.find(node->name());
  if (it == generated.seeds.end()) return;
  for (const auto& [relation, tuples] : it->second) {
    Relation* r = node->database().Find(relation);
    ASSERT_NE(r, nullptr);
    for (const Tuple& tuple : tuples) r->Insert(tuple);
  }
}

std::vector<Tuple> SortedAnswers(Node* node, NetworkBase& network) {
  Result<ConjunctiveQuery> q = ParseQuery("q(K, V) :- d(K, V).");
  EXPECT_TRUE(q.ok());
  Result<FlowId> query = node->StartQuery(q.value());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  network.Run();
  Result<std::vector<Tuple>> answers = node->QueryAnswers(query.value());
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  std::vector<Tuple> sorted = answers.ok() ? answers.value()
                                           : std::vector<Tuple>();
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// Reference deployment: every node gets the FULL configuration via a
// direct ApplyConfig — the pre-§13 distribution semantics.
struct FullConfigRun {
  NetworkInstance stores;
  std::vector<Tuple> answers;
};

FullConfigRun RunWithFullConfig(const GeneratedNetwork& generated) {
  FullConfigRun out;
  Network network;
  std::vector<std::unique_ptr<Node>> nodes;
  for (const NodeDecl& decl : generated.config.nodes()) {
    Result<std::unique_ptr<Node>> node = SpawnNode(&network, decl);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    if (!node.ok()) return out;
    Seed(node.value().get(), generated);
    nodes.push_back(std::move(node).value());
  }
  for (auto& node : nodes) {
    EXPECT_TRUE(node->ApplyConfig(generated.config, 1).ok());
  }
  network.Run();

  Result<FlowId> update = nodes.front()->StartGlobalUpdate();
  EXPECT_TRUE(update.ok()) << update.status().ToString();
  network.Run();

  for (auto& node : nodes) {
    out.stores.emplace(node->name(), node->database().Snapshot());
  }
  out.stores = Canonical(std::move(out.stores));
  out.answers = SortedAnswers(nodes.front().get(), network);
  return out;
}

TEST(ConfigDistributionTest, SliceConfiguredNetworkMatchesFullConfig) {
  struct Case {
    const char* name;
    GeneratedNetwork (*make)(const WorkloadOptions&);
    RuleStyle style;
  };
  const Case cases[] = {
      {"chain/copy", MakeChain, RuleStyle::kCopy},
      {"star/join", MakeStar, RuleStyle::kJoin},
      {"tree/project", MakeTree, RuleStyle::kProject},
      {"ring/join", MakeRing, RuleStyle::kJoin},  // cyclic rule set
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WorkloadOptions options;
    options.nodes = 6;
    options.tuples_per_node = 4;
    options.style = c.style;
    GeneratedNetwork generated = c.make(options);

    FullConfigRun reference = RunWithFullConfig(generated);

    // Same network, distributed as per-node slices by the super-peer.
    Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
    ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
    Testbed& bed = *testbed.value();

    EXPECT_GT(bed.network().stats().MessagesOfType(MessageType::kConfigSlice),
              0u);

    // Every node holds only its slice, yet answers cycle queries with the
    // super-peer's global closure.
    LinkGraph full_graph = LinkGraph::Build(generated.config);
    for (const auto& node : bed.nodes()) {
      ASSERT_NE(node->link_graph(), nullptr);
      EXPECT_EQ(node->link_graph()->HasAnyCycle(), full_graph.HasAnyCycle())
          << node->name();
      for (const CoordinationRule& rule : node->config()->rules()) {
        EXPECT_EQ(node->link_graph()->IsCyclic(rule.id()),
                  full_graph.IsCyclic(rule.id()))
            << node->name() << " rule " << rule.id();
      }
    }

    Result<FlowId> update = bed.RunGlobalUpdate("n0");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_TRUE(bed.AllComplete(update.value()));

    NetworkInstance sliced = Canonical(bed.Snapshot());
    ASSERT_EQ(reference.stores.size(), sliced.size());
    for (const auto& [name, instance] : reference.stores) {
      ASSERT_TRUE(sliced.count(name) > 0) << "missing node " << name;
      EXPECT_EQ(instance, sliced.at(name))
          << "slice-configured store diverged at " << name;
    }
    EXPECT_EQ(reference.answers, SortedAnswers(bed.node("n0"), bed.network()));
  }
}

TEST(ConfigDistributionTest, PatchRoundTripAndChecksumRejection) {
  WorkloadOptions options;
  options.nodes = 5;
  NetworkConfig from = MakeChain(options).config;
  NetworkConfig to = MakeStar(options).config;  // same nodes, new rules

  ConfigPatch patch = DiffSlices(from, to);
  patch.from_version = 1;
  patch.to_version = 2;
  EXPECT_FALSE(patch.Empty());

  Result<NetworkConfig> applied = ApplyPatch(from, patch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().CanonicalText(), to.CanonicalText());
  EXPECT_EQ(applied.value().CanonicalChecksum(), to.CanonicalChecksum());

  // Tampered post-state checksum: refused, and the base — ApplyPatch is
  // pure — still hashes as before (nothing was applied in place).
  const uint64_t base_checksum = from.CanonicalChecksum();
  ConfigPatch tampered = patch;
  tampered.post_checksum ^= 0xdeadbeef;
  Result<NetworkConfig> rejected = ApplyPatch(from, tampered);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
  EXPECT_EQ(from.CanonicalChecksum(), base_checksum);

  // Wrong base: refused up front by the pre-state checksum.
  Result<NetworkConfig> wrong_base = ApplyPatch(to, patch);
  ASSERT_FALSE(wrong_base.ok());
  EXPECT_EQ(wrong_base.status().code(), StatusCode::kFailedPrecondition);

  // Per-node slices patch the same way the full file does.
  LinkGraph from_graph = LinkGraph::Build(from);
  LinkGraph to_graph = LinkGraph::Build(to);
  for (const NodeDecl& decl : from.nodes()) {
    SCOPED_TRACE(decl.name);
    ConfigSlice old_slice = MakeSlice(from, from_graph, decl.name);
    ConfigSlice new_slice = MakeSlice(to, to_graph, decl.name);
    ConfigPatch slice_patch = DiffSlices(old_slice.config, new_slice.config);
    Result<NetworkConfig> patched = ApplyPatch(old_slice.config, slice_patch);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    EXPECT_EQ(patched.value().CanonicalChecksum(), new_slice.checksum);
  }
}

TEST(ConfigDistributionTest, RebroadcastShipsDeltasNotSlices) {
  WorkloadOptions options;
  options.nodes = 8;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  const uint64_t slice_bytes_v1 =
      bed.network().stats().BytesOfType(MessageType::kConfigSlice);
  EXPECT_GT(slice_bytes_v1, 0u);

  // Re-broadcast of the unchanged file: every peer acked v1, so v2 ships
  // as (empty) patches — not one slice more on the wire.
  ASSERT_TRUE(bed.super_peer().BroadcastConfig().ok());
  bed.network().Run();
  EXPECT_EQ(bed.network().stats().BytesOfType(MessageType::kConfigSlice),
            slice_bytes_v1);
  const uint64_t delta_bytes =
      bed.network().stats().BytesOfType(MessageType::kConfigDelta);
  EXPECT_GT(delta_bytes, 0u);
  EXPECT_LT(delta_bytes, slice_bytes_v1);

  EXPECT_EQ(bed.super_peer().config_version(), 2u);
  for (const auto& node : bed.nodes()) {
    EXPECT_EQ(node->config_version(), 2u) << node->name();
    EXPECT_EQ(bed.super_peer().AckedVersionOf(node->name()), 2u)
        << node->name();
  }
}

// A network whose next config send to the victim fails with an error (not
// a silent drop), modelling a refused connection mid-broadcast.
class FlakyNetwork : public Network {
 public:
  void FailNextConfigSendTo(PeerId victim) {
    victim_ = victim;
    armed_ = true;
  }

 protected:
  Status Enqueue(std::unique_ptr<Message> message, int64_t sent_us,
                 int64_t arrival_us) override {
    if (armed_ && message->dst == victim_ &&
        (message->type == MessageType::kConfigSlice ||
         message->type == MessageType::kConfigDelta)) {
      armed_ = false;
      return Status::Unavailable("injected config send failure");
    }
    return Network::Enqueue(std::move(message), sent_us, arrival_us);
  }

 private:
  PeerId victim_{};
  bool armed_ = false;
};

TEST(ConfigDistributionTest, PartialSendFailureLeavesNoVersionSkew) {
  WorkloadOptions options;
  options.nodes = 4;
  GeneratedNetwork generated = MakeChain(options);

  FlakyNetwork network;
  std::vector<std::unique_ptr<Node>> nodes;
  for (const NodeDecl& decl : generated.config.nodes()) {
    Result<std::unique_ptr<Node>> node = SpawnNode(&network, decl);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    nodes.push_back(std::move(node).value());
  }
  std::unique_ptr<SuperPeer> super = SuperPeer::Create(&network, "super");
  ASSERT_TRUE(super->LoadConfig(generated.config).ok());

  // The send to n2 fails mid-loop. The old BroadcastConfig aborted right
  // there, leaving n0..n1 on the new version and n2..n3 on the old one —
  // and a retry re-bumped the version past the already-updated peers.
  network.FailNextConfigSendTo(nodes[2]->id());
  ASSERT_TRUE(super->BroadcastConfig().ok());  // best-effort, not an error

  EXPECT_EQ(super->config_version(), 1u);  // bumped exactly once
  std::vector<std::string> failures = super->LastBroadcastFailures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], "n2");

  // The retransmit sweep heals the victim; after quiescence there is no
  // mixed-version region.
  network.Run();
  for (const auto& node : nodes) {
    EXPECT_EQ(node->config_version(), 1u) << node->name();
    EXPECT_EQ(super->AckedVersionOf(node->name()), 1u) << node->name();
  }
}

TEST(ConfigDistributionTest, LossyNetworkConvergesToLatestVersion) {
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  // The initial settle runs faultlessly (testbed contract); every later
  // send — broadcasts, deltas, acks, sweeps — rides a seeded 35% drop.
  Testbed::Options bed_options;
  bed_options.fault = FaultProfile::Drop(0.35, /*seed=*/1234);
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, bed_options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  // Two broadcasts under loss: v2 and v3. Lost kConfigSlice/kConfigDelta
  // deliveries are healed by the retransmit sweep; a node that missed an
  // intermediate version is patched from whatever it last acked.
  ASSERT_TRUE(bed.super_peer().BroadcastConfig().ok());
  bed.network().Run();
  ASSERT_TRUE(bed.super_peer().BroadcastConfig().ok());
  bed.network().Run();

  EXPECT_EQ(bed.super_peer().config_version(), 3u);
  for (const auto& node : bed.nodes()) {
    EXPECT_EQ(node->config_version(), 3u)
        << node->name() << " stuck on a stale config";
    EXPECT_EQ(bed.super_peer().AckedVersionOf(node->name()), 3u)
        << node->name();
  }
}

TEST(ConfigDistributionTest, RejoinerCatchesUpViaFetch) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  ASSERT_TRUE(bed.SilentKillNode("n2").ok());
  Result<Node*> revived = bed.RestartNode("n2");
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();

  // The super remembered n2's v1 ack (keyed by name, surviving the peer-id
  // change) and sent a v1->v2 delta; the restarted node is back at v0, so
  // it detected the gap, fetched, and got a full slice.
  EXPECT_GE(revived.value()
                ->statistics()
                .metrics()
                .GetCounter("config.gap_fetches")
                ->value(),
            1u);
  EXPECT_EQ(bed.super_peer().config_version(), 2u);
  EXPECT_EQ(revived.value()->config_version(), 2u);
  for (const auto& node : bed.nodes()) {
    EXPECT_EQ(node->config_version(), 2u) << node->name();
  }

  // The rejoined topology works end to end: n2 restarted empty (no
  // durable storage here) but relays n3's data to the head of the chain.
  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(bed.AllComplete(update.value()));
  EXPECT_EQ(bed.node("n0")->database().Find("d")->size(), 15u);  // n0+n1+n3
}

TEST(ConfigDistributionTest, LatecomerAcquaintancePipeOpensOnDiscovery) {
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Network network;
  // n0 applies the config before its exporter n1 exists: the pipe cannot
  // open yet, and the miss is parked for retry instead of dropped.
  Result<std::unique_ptr<Node>> n0 =
      SpawnNode(&network, *generated.config.FindNode("n0"));
  ASSERT_TRUE(n0.ok());
  Seed(n0.value().get(), generated);
  ASSERT_TRUE(n0.value()->ApplyConfig(generated.config, 1).ok());

  // n1 joins late and applies the same config; its announcement reaches
  // n0, whose deferred-pipe retry completes the topology.
  Result<std::unique_ptr<Node>> n1 =
      SpawnNode(&network, *generated.config.FindNode("n1"));
  ASSERT_TRUE(n1.ok());
  Seed(n1.value().get(), generated);
  ASSERT_TRUE(n1.value()->ApplyConfig(generated.config, 1).ok());
  network.Run();

  EXPECT_TRUE(network.HasPipe(n0.value()->id(), n1.value()->id()));
  Result<FlowId> update = n0.value()->StartGlobalUpdate();
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  network.Run();
  EXPECT_EQ(n0.value()->database().Find("d")->size(), 6u);  // n0 + n1
}

}  // namespace
}  // namespace codb
