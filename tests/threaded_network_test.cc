// Tests of the ThreadedNetwork runtime: basic delivery semantics, and the
// full coDB protocols (global update, refresh, query answering, stats
// collection) running over real threads and checked against the same
// oracle as the simulator. Ring and chain topologies are used because
// their outcomes are order-independent, so genuine concurrency cannot
// make the assertions flaky.

#include <gtest/gtest.h>

#include <atomic>

#include "core/oracle.h"
#include "net/threaded_network.h"
#include "query/homomorphism.h"
#include "query/parser.h"
#include "workload/testbed.h"

namespace codb {
namespace {

class CountingPeer : public NetworkPeer {
 public:
  void HandleMessage(const Message& message) override {
    ++received;
    last_payload_size = message.payload.size();
  }
  void HandlePipeClosed(PeerId) override { ++pipe_closures; }

  std::atomic<int> received{0};
  std::atomic<size_t> last_payload_size{0};
  std::atomic<int> pipe_closures{0};
};

TEST(ThreadedNetworkTest, DeliversMessagesAndRunsToQuiescence) {
  ThreadedNetwork network;
  CountingPeer a;
  CountingPeer b;
  PeerId id_a = network.Join("a", &a);
  PeerId id_b = network.Join("b", &b);

  LinkProfile fast;
  fast.latency_us = 100;
  fast.bandwidth_bpus = 0;
  ASSERT_TRUE(network.OpenPipe(id_a, id_b, fast).ok());

  Message m;
  m.src = id_a;
  m.dst = id_b;
  m.type = MessageType::kAdvertisement;
  m.payload = {1, 2, 3};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(network.Send(m).ok());
  }
  network.Run();
  EXPECT_EQ(b.received.load(), 10);
  EXPECT_EQ(b.last_payload_size.load(), 3u);
  EXPECT_EQ(network.stats().total_messages(), 10u);
}

TEST(ThreadedNetworkTest, SendValidatesPipesAndPeers) {
  ThreadedNetwork network;
  CountingPeer a;
  CountingPeer b;
  PeerId id_a = network.Join("a", &a);
  PeerId id_b = network.Join("b", &b);

  Message m;
  m.src = id_a;
  m.dst = id_b;
  EXPECT_EQ(network.Send(m).code(), StatusCode::kUnavailable);

  ASSERT_TRUE(network.OpenPipe(id_a, id_b).ok());
  EXPECT_EQ(network.Neighbors(id_a), (std::vector<PeerId>{id_b}));
  EXPECT_EQ(network.Neighbors(id_b), (std::vector<PeerId>{id_a}));
  EXPECT_EQ(network.open_pipe_count(), 1u);
  EXPECT_TRUE(network.Send(m).ok());
  ASSERT_TRUE(network.ClosePipe(id_a, id_b).ok());
  EXPECT_TRUE(network.Neighbors(id_a).empty());
  EXPECT_TRUE(network.Neighbors(id_b).empty());
  EXPECT_EQ(network.open_pipe_count(), 0u);
  EXPECT_EQ(network.Send(m).code(), StatusCode::kUnavailable);
  network.Run();
  // Both endpoints saw the closure notification.
  EXPECT_EQ(a.pipe_closures.load(), 1);
  EXPECT_EQ(b.pipe_closures.load(), 1);
}

TEST(ThreadedNetworkTest, ScheduledActionsFire) {
  ThreadedNetwork network;
  std::atomic<int> fired{0};
  network.ScheduleAfter(1000, [&] { ++fired; });
  network.ScheduleAfter(2000, [&] { ++fired; });
  network.Run();
  EXPECT_EQ(fired.load(), 2);
}

TEST(ThreadedNetworkTest, LeaveDropsTrafficAndNotifies) {
  ThreadedNetwork network;
  CountingPeer a;
  CountingPeer b;
  PeerId id_a = network.Join("a", &a);
  PeerId id_b = network.Join("b", &b);
  LinkProfile slow;
  slow.latency_us = 200'000;
  ASSERT_TRUE(network.OpenPipe(id_a, id_b, slow).ok());
  // Still on the wire when b leaves: lost, and counted like the
  // simulator counts it.
  ASSERT_TRUE(
      network.Send(Message{id_a, id_b, MessageType::kAdvertisement, {}})
          .ok());
  ASSERT_TRUE(network.Leave(id_b).ok());
  EXPECT_FALSE(network.IsAlive(id_b));
  network.Run();
  EXPECT_EQ(b.received.load(), 0);
  EXPECT_EQ(network.stats().dropped_messages(), 1u);
  EXPECT_EQ(a.pipe_closures.load(), 1);
  EXPECT_FALSE(network.Send(Message{id_b, id_a,
                                    MessageType::kAdvertisement, {}})
                   .ok());
}

Testbed::Options Threaded() {
  Testbed::Options options;
  options.threaded = true;
  // Keep real-time latency small so tests stay fast.
  options.node.link_profile.latency_us = 200;
  options.node.link_profile.bandwidth_bpus = 0;
  return options;
}

TEST(ThreadedProtocolTest, GlobalUpdateOverRealThreadsMatchesOracle) {
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, Threaded());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(bed.AllComplete(update.value()));

  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, generated.seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = bed.Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "node " << node;
  }
}

TEST(ThreadedProtocolTest, QueryAnsweringOverRealThreads) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, Threaded());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  Result<FlowId> query = bed.node("n0")->StartQuery(
      ParseQuery("q(K, V) :- d(K, V).").value());
  ASSERT_TRUE(query.ok());
  bed.network().Run();

  EXPECT_TRUE(bed.node("n0")->QueryDone(query.value()));
  Result<std::vector<Tuple>> answers =
      bed.node("n0")->QueryAnswers(query.value());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value().size(), 16u);
}

TEST(ThreadedProtocolTest, RefreshAndStatsOverRealThreads) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, Threaded());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  ASSERT_TRUE(bed.RunGlobalUpdate("n0").ok());
  EXPECT_EQ(bed.node("n0")->database().Find("d")->size(), 12u);

  Result<FlowId> refresh = bed.node("n0")->StartGlobalRefresh();
  ASSERT_TRUE(refresh.ok());
  bed.network().Run();
  EXPECT_EQ(bed.node("n0")->database().Find("d")->size(), 12u);

  ASSERT_TRUE(bed.CollectStats().ok());
  EXPECT_EQ(bed.super_peer().collected().size(), 4u);
}

TEST(ThreadedProtocolTest, UpdateSurvivesChurnOnRealThreads) {
  // Cut a pipe while a threaded update is in flight: Dijkstra–Scholten's
  // peer-loss cancellation must still drive the update to completion.
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 8;
  GeneratedNetwork generated = MakeChain(options);

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, Threaded());
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();

  // Cut roughly mid-flight (wall-clock): the chain needs ~5 hops at
  // 200us/hop, so 400us lands inside the propagation.
  bed.network().ScheduleAfter(400, [&] {
    bed.network().ClosePipe(bed.node("n3")->id(), bed.node("n4")->id());
  });

  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok());
  bed.network().Run();

  EXPECT_TRUE(
      bed.node("n0")->update_manager()->IsComplete(update.value()));
  // At least the near side of the cut arrived; churn timing decides the
  // rest (this is a real race by design).
  EXPECT_GE(bed.node("n0")->database().Find("d")->size(), 8u * 4u - 8u);
}

TEST(ThreadedProtocolTest, RepeatedRunsAreStable) {
  // Exercise the runtime repeatedly to shake out races (run under TSan or
  // stress loops in CI; here a handful of iterations).
  for (int i = 0; i < 5; ++i) {
    WorkloadOptions options;
    options.nodes = 5;
    options.tuples_per_node = 3;
    options.seed = static_cast<uint64_t>(i + 1);
    GeneratedNetwork generated = MakeTree(options);

    Result<std::unique_ptr<Testbed>> testbed =
        Testbed::Create(generated, Threaded());
    ASSERT_TRUE(testbed.ok());
    Result<FlowId> update = testbed.value()->RunGlobalUpdate("n0");
    ASSERT_TRUE(update.ok());
    EXPECT_TRUE(testbed.value()->AllComplete(update.value())) << i;
    EXPECT_EQ(
        testbed.value()->node("n0")->database().Find("d")->size(),
        15u)
        << i;
  }
}

}  // namespace
}  // namespace codb
