// Torture tests for the unreliable-network stack: deterministic fault
// injection (net/fault.h) underneath, at-least-once delivery
// (core/reliability.h) on top. The headline assertion: a global update
// over a lossy, duplicating, reordering network converges to exactly the
// database a fault-free run produces, with exactly-once termination at
// the root — across a matrix of seeds and fault profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "core/reliability.h"
#include "net/fault.h"
#include "net/network.h"
#include "net/threaded_network.h"
#include "query/parser.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

// ---------------------------------------------------------------------------
// Injector determinism

TEST(FaultInjectorTest, SameSeedReplaysTheSameDecisions) {
  FaultProfile profile;
  profile.drop_rate = 0.3;
  profile.duplicate_rate = 0.2;
  profile.reorder_rate = 0.4;
  profile.jitter_us = 500;
  profile.seed = 1234;

  FaultInjector a(profile, PeerId(7), PeerId(9));
  FaultInjector b(profile, PeerId(7), PeerId(9));
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Decision da = a.Next();
    FaultInjector::Decision db = b.Next();
    EXPECT_EQ(da.drop, db.drop) << "message " << i;
    EXPECT_EQ(da.duplicate, db.duplicate) << "message " << i;
    EXPECT_EQ(da.extra_delay_us, db.extra_delay_us) << "message " << i;
  }
}

TEST(FaultInjectorTest, EndpointsDecorrelateTheSequence) {
  FaultProfile profile = FaultProfile::Drop(0.5, /*seed=*/42);
  FaultInjector ab(profile, PeerId(1), PeerId(2));
  FaultInjector ba(profile, PeerId(2), PeerId(1));
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (ab.Next().drop != ba.Next().drop) ++differing;
  }
  // The two directions of a pipe share a profile but must not share a
  // fault sequence (else losses would always be symmetric).
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, PartitionEatsEverythingAndZeroProfileNothing) {
  FaultInjector partition(FaultProfile::Partition(), PeerId(1), PeerId(2));
  FaultInjector clean(FaultProfile(), PeerId(1), PeerId(2));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(partition.Next().drop);
    FaultInjector::Decision d = clean.Next();
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay_us, 0);
  }
}

// ---------------------------------------------------------------------------
// Receiver-side ordering gate

TEST(DupFilterTest, RestoresSenderOrderAndSuppressesDuplicates) {
  DupFilter filter;
  FlowId flow{FlowId::Scope::kUpdate, 1, 1};
  PeerId src(9);
  auto msg = [&](uint32_t seq) {
    Message m;
    m.src = src;
    m.seq = seq;
    return m;
  };

  EXPECT_EQ(filter.Check(flow, src, 1), DupFilter::Verdict::kDeliver);
  // Seq 3 arrives before 2 (a drop's retransmission is in flight).
  EXPECT_EQ(filter.Check(flow, src, 3), DupFilter::Verdict::kHold);
  filter.Hold(flow, src, msg(3));
  EXPECT_EQ(filter.held_count(), 1u);
  // A duplicate of the parked message needs no second parking.
  EXPECT_EQ(filter.Check(flow, src, 3), DupFilter::Verdict::kDuplicate);
  // Nothing is releasable while the gap is open.
  EXPECT_FALSE(filter.NextReady(flow, src).has_value());

  // The gap fills: 2 delivers, and 3 becomes releasable.
  EXPECT_EQ(filter.Check(flow, src, 2), DupFilter::Verdict::kDeliver);
  std::optional<Message> ready = filter.NextReady(flow, src);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->seq, 3u);
  EXPECT_EQ(filter.Check(flow, src, 3), DupFilter::Verdict::kDeliver);

  // Late retransmissions of anything already delivered are duplicates.
  EXPECT_EQ(filter.Check(flow, src, 1), DupFilter::Verdict::kDuplicate);
  EXPECT_EQ(filter.Check(flow, src, 3), DupFilter::Verdict::kDuplicate);
  // Unsequenced traffic always passes.
  EXPECT_EQ(filter.Check(flow, src, 0), DupFilter::Verdict::kDeliver);
}

// ---------------------------------------------------------------------------
// Runtime-level injection

class CountingPeer : public NetworkPeer {
 public:
  void HandleMessage(const Message&) override { ++received; }
  void HandlePipeClosed(PeerId) override {}

  std::atomic<int> received{0};
};

Message Msg(PeerId src, PeerId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = MessageType::kAdvertisement;
  m.payload = {1, 2, 3};
  return m;
}

// Runtime 0 is the simulator, runtime 1 the threaded runtime.
std::unique_ptr<NetworkBase> MakeRuntime(int runtime) {
  if (runtime == 0) return std::make_unique<Network>();
  return std::make_unique<ThreadedNetwork>();
}

TEST(FaultNetworkTest, FullDropLosesEverythingAndCountsIt) {
  for (int runtime = 0; runtime < 2; ++runtime) {
    SCOPED_TRACE(runtime == 0 ? "simulator" : "threaded");
    CountingPeer a;
    CountingPeer b;
    std::unique_ptr<NetworkBase> network = MakeRuntime(runtime);
    PeerId id_a = network->Join("a", &a);
    PeerId id_b = network->Join("b", &b);
    ASSERT_TRUE(network->OpenPipe(id_a, id_b).ok());
    ASSERT_TRUE(
        network->SetFaultProfile(id_a, id_b, FaultProfile::Partition()).ok());

    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(network->Send(Msg(id_a, id_b)).ok());
    }
    network->Run();
    EXPECT_EQ(b.received.load(), 0);
    EXPECT_EQ(network->stats().injected_drops(), 10u);
    // Sends are still counted: the sender paid for them.
    EXPECT_EQ(network->stats().total_messages(), 10u);
  }
}

TEST(FaultNetworkTest, FullDuplicationDeliversTwice) {
  for (int runtime = 0; runtime < 2; ++runtime) {
    SCOPED_TRACE(runtime == 0 ? "simulator" : "threaded");
    CountingPeer a;
    CountingPeer b;
    std::unique_ptr<NetworkBase> network = MakeRuntime(runtime);
    PeerId id_a = network->Join("a", &a);
    PeerId id_b = network->Join("b", &b);
    ASSERT_TRUE(network->OpenPipe(id_a, id_b).ok());
    ASSERT_TRUE(network
                    ->SetFaultProfile(id_a, id_b,
                                      FaultProfile::Duplicate(1.0, /*seed=*/1))
                    .ok());

    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(network->Send(Msg(id_a, id_b)).ok());
    }
    network->Run();
    EXPECT_EQ(b.received.load(), 20);
    EXPECT_EQ(network->stats().injected_dups(), 10u);
  }
}

TEST(FaultNetworkTest, ReorderDelaysButNeverLoses) {
  for (int runtime = 0; runtime < 2; ++runtime) {
    SCOPED_TRACE(runtime == 0 ? "simulator" : "threaded");
    CountingPeer a;
    CountingPeer b;
    std::unique_ptr<NetworkBase> network = MakeRuntime(runtime);
    PeerId id_a = network->Join("a", &a);
    PeerId id_b = network->Join("b", &b);
    ASSERT_TRUE(network->OpenPipe(id_a, id_b).ok());
    ASSERT_TRUE(network
                    ->SetFaultProfile(
                        id_a, id_b,
                        FaultProfile::Reorder(1.0, /*jitter_us=*/5000,
                                              /*seed=*/3))
                    .ok());

    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(network->Send(Msg(id_a, id_b)).ok());
    }
    network->Run();
    EXPECT_EQ(b.received.load(), 20);
    EXPECT_EQ(network->stats().injected_drops(), 0u);
    EXPECT_GT(network->stats().injected_delays(), 0u);
  }
}

// The simulator and the threaded runtime must inject the *same* faults
// for the same per-pipe traffic: the injector is seeded from (profile,
// endpoints) and advances once per send, never from wall-clock state.
TEST(FaultNetworkTest, RuntimesInjectIdenticalFaultSequences) {
  FaultProfile profile;
  profile.drop_rate = 0.4;
  profile.duplicate_rate = 0.2;
  profile.seed = 77;

  uint64_t drops[2];
  uint64_t dups[2];
  int delivered[2];
  for (int runtime = 0; runtime < 2; ++runtime) {
    CountingPeer a;
    CountingPeer b;
    std::unique_ptr<NetworkBase> network = MakeRuntime(runtime);
    // Names pin the peer ids so MixSeed sees identical endpoints.
    PeerId id_a = network->Join("a", &a);
    PeerId id_b = network->Join("b", &b);
    ASSERT_TRUE(network->OpenPipe(id_a, id_b).ok());
    ASSERT_TRUE(network->SetFaultProfile(id_a, id_b, profile).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(network->Send(Msg(id_a, id_b)).ok());
    }
    network->Run();
    drops[runtime] = network->stats().injected_drops();
    dups[runtime] = network->stats().injected_dups();
    delivered[runtime] = b.received.load();
  }
  EXPECT_EQ(drops[0], drops[1]);
  EXPECT_EQ(dups[0], dups[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_GT(drops[0], 0u);
  EXPECT_GT(dups[0], 0u);
}

// ---------------------------------------------------------------------------
// Protocol torture matrix

// Order-independent form of a node's store: reordering faults perturb
// insertion order, which must not count as divergence.
Instance Normalized(Instance instance) {
  for (auto& [relation, tuples] : instance) {
    std::sort(tuples.begin(), tuples.end());
  }
  return instance;
}

NetworkInstance Normalized(const NetworkInstance& network) {
  NetworkInstance out;
  for (const auto& [node, instance] : network) {
    out.emplace(node, Normalized(instance));
  }
  return out;
}

uint64_t CounterAt(const Testbed& bed, const std::string& node,
                   const std::string& name) {
  Node* n = const_cast<Testbed&>(bed).node(node);
  return n->statistics().metrics().GetCounter(name)->value();
}

uint64_t CounterSum(Testbed& bed, const std::string& name) {
  uint64_t total = 0;
  for (const auto& node : bed.nodes()) {
    total += node->statistics().metrics().GetCounter(name)->value();
  }
  return total;
}

TEST(FaultTortureTest, UpdateConvergesUnderSeedMatrix) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 3;
  // The directed ring is the adversarial topology: every message class
  // (request flood, data along simple paths, inductive link closing,
  // completion flood) crosses every pipe, and a single lost or
  // re-engaging message wedges or corrupts the whole cycle.
  GeneratedNetwork generated = MakeRing(workload);

  // Fault-free baseline (reliability off: the historical code path).
  NetworkInstance baseline;
  {
    Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    ASSERT_TRUE(bed.value()->AllComplete(update.value()));
    baseline = Normalized(bed.value()->Snapshot());
  }

  struct TortureCase {
    const char* name;
    FaultProfile profile;
  };
  auto mixed = [](uint64_t seed) {
    FaultProfile p;
    p.drop_rate = 0.03;
    p.duplicate_rate = 0.03;
    p.reorder_rate = 0.2;
    p.jitter_us = 2000;
    p.seed = seed;
    return p;
  };

  uint64_t total_drops = 0;
  uint64_t total_dups_suppressed = 0;
  uint64_t total_retransmits = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::vector<TortureCase> cases = {
        {"drop5pct", FaultProfile::Drop(0.05, seed)},
        {"dup5pct", FaultProfile::Duplicate(0.05, seed)},
        {"reorder", FaultProfile::Reorder(0.5, /*jitter_us=*/2000, seed)},
        {"mixed", mixed(seed)},
    };
    for (const TortureCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Testbed::Options options;
      options.fault = c.profile;
      options.node.reliability.enabled = true;
      options.node.reliability.retransmit_base_us = 20'000;
      options.node.reliability.max_retries = 10;
      Result<std::unique_ptr<Testbed>> bed =
          Testbed::Create(generated, options);
      ASSERT_TRUE(bed.ok()) << bed.status().ToString();

      Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      EXPECT_TRUE(bed.value()->AllComplete(update.value()));

      // Byte-for-byte the same converged network as the fault-free run.
      EXPECT_EQ(Normalized(bed.value()->Snapshot()), baseline);
      // The root's termination callback fired exactly once, and no flow
      // hit its (disabled) deadline.
      EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.root_terminations"),
                1u);
      EXPECT_EQ(CounterSum(*bed.value(), "update.aborted"), 0u);

      total_drops += bed.value()->network().stats().injected_drops();
      total_dups_suppressed +=
          CounterSum(*bed.value(), "update.dups_suppressed");
      total_retransmits += CounterSum(*bed.value(), "update.retransmits");
    }
  }
  // The matrix genuinely exercised the machinery: faults were injected,
  // duplicates suppressed, losses repaired.
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_dups_suppressed, 0u);
  EXPECT_GT(total_retransmits, 0u);
}

TEST(FaultTortureTest, BackToBackUpdatesStayExactlyOnce) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 2;
  GeneratedNetwork generated = MakeRing(workload);

  Testbed::Options options;
  options.fault = FaultProfile::Drop(0.05, /*seed=*/9);
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 20'000;
  options.node.reliability.max_retries = 10;
  Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated, options);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  // Two sequential updates from the same root: late retransmissions of
  // the first flow must not re-engage anyone or leak into the second.
  for (int round = 1; round <= 2; ++round) {
    Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_TRUE(bed.value()->AllComplete(update.value()));
    EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.root_terminations"),
              static_cast<uint64_t>(round));
  }
}

TEST(FaultTortureTest, QueryConvergesUnderFaults) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 3;
  GeneratedNetwork generated = MakeRing(workload);

  // Baseline answers on a reliable network.
  std::vector<Tuple> expected;
  {
    Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    Node* root = bed.value()->node("n0");
    Result<FlowId> query =
        root->StartQuery(ParseQuery("q(K, V) :- d(K, V).").value());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    bed.value()->network().Run();
    ASSERT_TRUE(root->QueryDone(query.value()));
    expected = root->QueryAnswers(query.value()).value();
    std::sort(expected.begin(), expected.end());
  }

  Testbed::Options options;
  options.fault = FaultProfile::Drop(0.05, /*seed=*/5);
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 20'000;
  options.node.reliability.max_retries = 10;
  Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated, options);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();
  Node* root = bed.value()->node("n0");
  Result<FlowId> query =
      root->StartQuery(ParseQuery("q(K, V) :- d(K, V).").value());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  bed.value()->network().Run();
  ASSERT_TRUE(root->QueryDone(query.value()));
  std::vector<Tuple> answers = root->QueryAnswers(query.value()).value();
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, expected);
  EXPECT_EQ(CounterAt(*bed.value(), "n0", "query.root_terminations"), 1u);
}

TEST(FaultTortureTest, PartitionTriggersDeadlineAbort) {
  WorkloadOptions workload;
  workload.nodes = 3;
  workload.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(workload);

  Testbed::Options options;
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 20'000;
  options.node.reliability.max_retries = 12;
  options.node.reliability.flow_deadline_us = 500'000;
  Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated, options);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  // Silent partition between n1 and n2: the link eats everything but no
  // pipe-closed notification fires, so deficit toward n2 can only be
  // released by retry exhaustion — long after the root's deadline.
  ASSERT_TRUE(
      bed.value()->SetFault("n1", "n2", FaultProfile::Partition()).ok());

  Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(bed.value()->AllComplete(update.value()));

  // Partial coverage: the root imported n1's data but never n2's.
  EXPECT_EQ(bed.value()->node("n0")->database().Find("d")->size(), 4u);

  // The abort is visible in the report and the metrics, and the normal
  // termination callback did NOT also fire (exactly-once).
  const UpdateReport* report =
      bed.value()->node("n0")->statistics().FindReport(update.value());
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->aborted);
  EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.aborted"), 1u);
  EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.root_terminations"), 0u);
}

// Churn torture: a lossy, duplicating, reordering network AND silent
// node deaths, with the membership layer running. The detector must walk
// a line: every dead peer is evicted by exactly its trackers, and no
// live peer is ever evicted no matter how many beacons the network eats
// (false *suspicions* are allowed — they recover; false *evictions* are
// not). suspect_after_periods is widened to 3 so detection needs several
// consecutive losses before even suspecting.
TEST(FaultTortureTest, ChurnUnderDropsEvictsTheDeadAndOnlyTheDead) {
  WorkloadOptions workload;
  workload.nodes = 6;
  workload.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(workload);

  for (uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultProfile profile;
    profile.drop_rate = 0.10;
    profile.duplicate_rate = 0.05;
    profile.reorder_rate = 0.2;
    profile.jitter_us = 2000;
    profile.seed = seed;

    Testbed::Options options;
    options.fault = profile;
    options.node.reliability.enabled = true;
    options.node.reliability.retransmit_base_us = 20'000;
    options.node.reliability.max_retries = 10;
    options.membership = true;
    options.membership_options.period_us = 200'000;
    options.membership_options.suspect_after_periods = 3.0;
    Result<std::unique_ptr<Testbed>> testbed =
        Testbed::Create(generated, options);
    ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
    Testbed& bed = *testbed.value();
    const int64_t period = options.membership_options.period_us;

    // Quiet cruising under faults: beacons get dropped, nobody dies, and
    // nobody gets evicted.
    bed.network().RunFor(8 * period);
    for (const auto& node : bed.nodes()) {
      EXPECT_EQ(node->membership()->counters().evictions, 0u)
          << node->name();
    }

    // A full update torture pass rides alongside the beacon traffic.
    Result<FlowId> first = bed.RunGlobalUpdate("n0");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(bed.AllComplete(first.value()));

    // Two silent deaths: one mid-chain (splits it), one at the tail.
    PeerId dead2 = bed.node("n2")->id();
    PeerId dead5 = bed.node("n5")->id();
    ASSERT_TRUE(bed.SilentKillNode("n2").ok());
    ASSERT_TRUE(bed.SilentKillNode("n5").ok());
    bed.network().RunFor(12 * period);

    // The dead are evicted by exactly their chain neighbours (n1, n3 for
    // n2; n4 for n5) — and nobody else got evicted by anybody.
    EXPECT_FALSE(bed.node("n1")->IsPresumedAlive(dead2));
    EXPECT_FALSE(bed.node("n3")->IsPresumedAlive(dead2));
    EXPECT_FALSE(bed.node("n4")->IsPresumedAlive(dead5));
    uint64_t evictions = 0;
    for (const auto& node : bed.nodes()) {
      evictions += node->membership()->counters().evictions;
    }
    EXPECT_EQ(evictions, 3u) << "a live peer was evicted";
    for (const char* pair : {"n0", "n1", "n3", "n4"}) {
      for (const char* other : {"n0", "n1", "n3", "n4"}) {
        EXPECT_TRUE(
            bed.node(pair)->IsPresumedAlive(bed.node(other)->id()))
            << pair << " wrongly distrusts " << other;
      }
    }

    // Life goes on: an update over the splintered topology terminates on
    // the reachable component instead of waiting on corpses.
    Result<FlowId> second = bed.RunGlobalUpdate("n0");
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_TRUE(bed.AllComplete(second.value()));
  }
}

// Incremental-update torture: the semi-naive path rides the same
// reliability machinery as the full update, so a lossy, duplicating,
// reordering ring must converge to exactly the stores a fault-free
// incremental run produces — same baseline update, same delta, same
// initiator — with exactly-once termination for both flows and no aborts.
TEST(FaultTortureTest, IncrementalUpdateConvergesUnderSeedMatrix) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 3;
  GeneratedNetwork generated = MakeRing(workload);

  // n0 owns keys [0, 10000); the delta keys live past the seeded prefix.
  const std::vector<Tuple> delta = {
      Tuple{Value::Int(1001), Value::Int(11)},
      Tuple{Value::Int(1002), Value::Int(22)},
      Tuple{Value::Int(1003), Value::Int(33)}};

  auto run_incremental = [&](Testbed& bed) {
    Result<FlowId> baseline = bed.RunGlobalUpdate("n0");
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_TRUE(bed.AllComplete(baseline.value()));
    ASSERT_TRUE(bed.node("n0")->InsertLocal("d", delta).ok());
    Result<FlowId> update = bed.RunIncrementalUpdate("n0");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_TRUE(bed.AllComplete(update.value()));
  };

  // Fault-free incremental reference.
  NetworkInstance reference;
  {
    Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    run_incremental(*bed.value());
    reference = Normalized(bed.value()->Snapshot());
  }

  auto mixed = [](uint64_t seed) {
    FaultProfile p;
    p.drop_rate = 0.03;
    p.duplicate_rate = 0.03;
    p.reorder_rate = 0.2;
    p.jitter_us = 2000;
    p.seed = seed;
    return p;
  };

  uint64_t total_drops = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    struct TortureCase {
      const char* name;
      FaultProfile profile;
    };
    std::vector<TortureCase> cases = {
        {"drop5pct", FaultProfile::Drop(0.05, seed)},
        {"dup5pct", FaultProfile::Duplicate(0.05, seed)},
        {"reorder", FaultProfile::Reorder(0.5, /*jitter_us=*/2000, seed)},
        {"mixed", mixed(seed)},
    };
    for (const TortureCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Testbed::Options options;
      options.fault = c.profile;
      options.node.reliability.enabled = true;
      options.node.reliability.retransmit_base_us = 20'000;
      options.node.reliability.max_retries = 10;
      Result<std::unique_ptr<Testbed>> bed =
          Testbed::Create(generated, options);
      ASSERT_TRUE(bed.ok()) << bed.status().ToString();

      run_incremental(*bed.value());
      EXPECT_EQ(Normalized(bed.value()->Snapshot()), reference);
      // Baseline + incremental: two clean root terminations, no aborts,
      // and the incremental flag counted exactly once.
      EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.root_terminations"),
                2u);
      EXPECT_EQ(CounterSum(*bed.value(), "update.aborted"), 0u);
      EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.incremental"), 1u);
      total_drops += bed.value()->network().stats().injected_drops();
    }
  }
  EXPECT_GT(total_drops, 0u);
}

// A peer dying silently in the middle of an incremental update: the flow
// cannot finish cleanly (the victim holds a deficit forever), so the
// root's deadline must abort it — with the completion callback firing
// exactly once — while the surviving prefix of the chain keeps the delta
// it already imported.
TEST(FaultTortureTest, MidIncrementalSilentDeathAbortsExactlyOnce) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(workload);

  Testbed::Options options;
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 20'000;
  options.node.reliability.max_retries = 12;
  options.node.reliability.flow_deadline_us = 500'000;
  options.membership = true;
  options.membership_options.period_us = 200'000;
  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> baseline = bed.RunGlobalUpdate("n3");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(bed.AllComplete(baseline.value()));

  const Tuple delta_row{Value::Int(31001), Value::Int(9)};
  ASSERT_TRUE(bed.node("n3")->InsertLocal("d", {delta_row}).ok());

  int fired = 0;
  Result<FlowId> flow = bed.node("n3")->StartIncrementalUpdate(
      [&fired](const FlowId&) { ++fired; });
  ASSERT_TRUE(flow.ok()) << flow.status().ToString();
  // The kill lands 2.5ms into the flow (hop latency is 1ms): n3→n2 has
  // delivered and n2 has engaged n1, and every message toward the corpse
  // — including retransmissions — now vanishes.
  bed.network().ScheduleAfter(2'500, [&bed] {
    ASSERT_TRUE(bed.SilentKillNode("n1").ok());
  });
  bed.network().Run();

  EXPECT_EQ(fired, 1) << "completion callback must fire exactly once";
  // The root aborted and the reachable side of the break learned it; n0,
  // stranded behind the corpse, can never receive the completion — if
  // n1's data beat the kill to n0 it stays joined-but-incomplete (exactly
  // what the membership layer exists to clean up).
  EXPECT_TRUE(bed.node("n3")->update_manager()->IsComplete(flow.value()));
  EXPECT_TRUE(bed.node("n2")->update_manager()->IsComplete(flow.value()));
  EXPECT_FALSE(bed.node("n0")->update_manager()->IsComplete(flow.value()));
  const UpdateReport* report =
      bed.node("n3")->statistics().FindReport(flow.value());
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->aborted);
  // The surviving neighbour imported the delta before the chain snapped.
  const Relation* at_n2 = bed.node("n2")->database().Find("d");
  ASSERT_NE(at_n2, nullptr);
  EXPECT_TRUE(at_n2->Contains(delta_row));
}

// One torture pass on the threaded runtime: real threads, real timers,
// same convergence guarantee. Small rates and a short retransmit base
// keep the wall-clock cost of each repair in the milliseconds.
TEST(FaultTortureTest, ThreadedRuntimeConvergesUnderDrops) {
  WorkloadOptions workload;
  workload.nodes = 4;
  workload.tuples_per_node = 2;
  GeneratedNetwork generated = MakeRing(workload);

  NetworkInstance baseline;
  {
    Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    baseline = Normalized(bed.value()->Snapshot());
  }

  Testbed::Options options;
  options.threaded = true;
  options.fault = FaultProfile::Drop(0.05, /*seed=*/11);
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 5'000;
  options.node.reliability.max_retries = 10;
  Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated, options);
  ASSERT_TRUE(bed.ok()) << bed.status().ToString();

  Result<FlowId> update = bed.value()->RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(bed.value()->AllComplete(update.value()));
  EXPECT_EQ(Normalized(bed.value()->Snapshot()), baseline);
  EXPECT_EQ(CounterAt(*bed.value(), "n0", "update.root_terminations"), 1u);
}

}  // namespace
}  // namespace codb
