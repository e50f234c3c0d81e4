// Robustness tests: nodes must survive malformed payloads, unexpected
// message kinds, stray protocol traffic, and mutation fuzz without
// crashing or corrupting their stores; and the algorithms must stay
// correct under heterogeneous and extreme link profiles.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/config_distribution.h"
#include "core/oracle.h"
#include "core/super_peer.h"
#include "membership/heartbeat.h"
#include "net/discovery.h"
#include "query/homomorphism.h"
#include "util/random.h"
#include "workload/testbed.h"

namespace codb {
namespace {

// Sends a raw message from a fresh peer wired to the target node.
class RawSender : public NetworkPeer {
 public:
  void HandleMessage(const Message&) override {}
};

// One valid payload of every message kind a node handles, as `from` would
// send it to `target`. Flow ids originate at `from`, so no mutation can
// collide with a flow the network itself starts later.
std::vector<std::pair<MessageType, std::vector<uint8_t>>> ValidPayloads(
    Testbed& bed, const Node& target, PeerId from) {
  const FlowId update{FlowId::Scope::kUpdate, from.value, 1};
  const FlowId query{FlowId::Scope::kQuery, from.value, 2};
  // In the chain n0 <- n1 <- n2, the middle node serves r0 and imports
  // through r1.
  std::vector<HeadTuple> tuples = {{"d", Tuple{Value::Int(7), Value::Int(8)}},
                                   {"d", Tuple{Value::Int(9), Value::Int(1)}}};
  const NetworkConfig& config = *target.config();
  ConfigSlicePayload slice;
  slice.version = target.config_version();  // stale unless mutated
  slice.config_text = config.Serialize();
  slice.checksum = config.CanonicalChecksum();
  ConfigDeltaPayload delta;  // an empty patch onto the current version
  delta.patch.from_version = target.config_version();
  delta.patch.to_version = target.config_version() + 1;
  delta.patch.pre_checksum = config.CanonicalChecksum();
  delta.patch.post_checksum = config.CanonicalChecksum();
  HeartbeatPayload beacon{1, 1, 0, {{from.value, 1, PeerHealth::kAlive}}};
  FederationReportPayload federation;
  federation.super_name = "fuzzer";

  return {
      {MessageType::kAdvertisement,
       PeerAdvertisement{from, 1, "fuzzer", {"d", "e"}}.Serialize()},
      {MessageType::kUpdateRequest, UpdateRequestPayload{update}.Serialize()},
      {MessageType::kUpdateData,
       UpdateDataPayload{update, "r1", {from.value}, tuples}.Serialize()},
      {MessageType::kLinkClosed, LinkClosedPayload{update, "r1"}.Serialize()},
      {MessageType::kUpdateAck, AckPayload{update}.Serialize()},
      {MessageType::kUpdateComplete,
       UpdateCompletePayload{update}.Serialize()},
      {MessageType::kQueryRequest,
       QueryRequestPayload{query, "r0", {from.value}}.Serialize()},
      {MessageType::kQueryResult,
       QueryResultPayload{query, "r1", tuples}.Serialize()},
      {MessageType::kQueryDone, QueryDonePayload{query}.Serialize()},
      {MessageType::kDeliveryAck, DeliveryAckPayload{query, 1}.Serialize()},
      {MessageType::kStatsRequest, StatsRequestPayload{1}.Serialize()},
      {MessageType::kStatsReport,
       bed.node("n2")->statistics().SerializeAll()},
      {MessageType::kHeartbeat, beacon.Serialize()},
      {MessageType::kHeartbeatAck, HeartbeatAckPayload{1, 1, 0}.Serialize()},
      {MessageType::kFederationReport, federation.Serialize()},
      {MessageType::kConfigSlice, slice.Serialize()},
      {MessageType::kConfigDelta, delta.Serialize()},
      {MessageType::kConfigFetch, ConfigFetchPayload{1, 2}.Serialize()},
      {MessageType::kConfigAck, ConfigAckPayload{1, 2}.Serialize()},
  };
}

TEST(RobustnessTest, MalformedPayloadsAreIgnored) {
  WorkloadOptions options;
  options.nodes = 3;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();
  const Node& target = *bed.node("n1");

  RawSender sender;
  PeerId raw = bed.network().Join("fuzzer", &sender);
  ASSERT_TRUE(bed.network().OpenPipe(raw, target.id()).ok());

  // Every valid payload, each of its proper prefixes, and a copy with
  // 0xFFFFFFFF over each 4-byte window: truncations cut every field short
  // and the windows inflate every length prefix.
  size_t sent = 0;
  for (const auto& [type, valid] : ValidPayloads(bed, target, raw)) {
    std::vector<std::vector<uint8_t>> variants;
    for (size_t length = 0; length <= valid.size(); ++length) {
      variants.emplace_back(valid.begin(),
                            valid.begin() + static_cast<long>(length));
    }
    for (size_t at = 0; at + 4 <= valid.size(); ++at) {
      std::vector<uint8_t> inflated = valid;
      std::fill_n(inflated.begin() + static_cast<long>(at), 4, 0xFF);
      variants.push_back(std::move(inflated));
    }
    for (std::vector<uint8_t>& payload : variants) {
      ASSERT_TRUE(bed.network()
                      .Send(MakeMessage(raw, target.id(), type,
                                        std::move(payload)))
                      .ok());
      ++sent;
    }
  }
  EXPECT_GT(sent, 1000u);
  ASSERT_NO_THROW(bed.network().Run());

  // The node survived and still works end to end. (A mutation can form a
  // valid data message, so the store size is not pinned.)
  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));
}

TEST(RobustnessTest, StrayProtocolMessagesForUnknownFlows) {
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  PeerId n0 = bed.node("n0")->id();
  PeerId n1 = bed.node("n1")->id();

  // A LinkClosed for an update nobody started: the node joins defensively
  // and the stray flow still terminates.
  LinkClosedPayload stray{{FlowId::Scope::kUpdate, 55, 99}, "r0"};
  ASSERT_TRUE(bed.network()
                  .Send(MakeMessage(n1, n0, MessageType::kLinkClosed,
                                    stray.Serialize()))
                  .ok());
  // An ack nobody asked for.
  AckPayload ack{{FlowId::Scope::kQuery, 1, 2}};
  ASSERT_TRUE(bed.network()
                  .Send(MakeMessage(n1, n0, MessageType::kUpdateAck,
                                    ack.Serialize()))
                  .ok());
  // Update data for an unknown rule.
  UpdateDataPayload data;
  data.update = {FlowId::Scope::kUpdate, 55, 100};
  data.rule_id = "ghost-rule";
  data.path = {n1.value};
  ASSERT_TRUE(bed.network()
                  .Send(MakeMessage(n1, n0, MessageType::kUpdateData,
                                    data.Serialize()))
                  .ok());
  bed.network().Run();

  // Still fully functional.
  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));
}

class LatencyFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatencyFuzzSweep, HeterogeneousLatenciesPreserveCorrectness) {
  // Randomize every pipe's latency/bandwidth, reordering deliveries
  // across pipes; the update must still match the oracle (chains and
  // rings have unique derivations, so exact agreement is required).
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 4;
  options.seed = GetParam();
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Rng rng(GetParam());
  for (const auto& a : bed.nodes()) {
    for (const auto& b : bed.nodes()) {
      if (a->id().value >= b->id().value) continue;
      if (!bed.network().HasPipe(a->id(), b->id())) continue;
      LinkProfile profile;
      profile.latency_us = static_cast<int64_t>(rng.Uniform(50'000)) + 1;
      profile.bandwidth_bpus = 0.1 + rng.UniformDouble() * 100.0;
      ASSERT_TRUE(
          bed.network().OpenPipe(a->id(), b->id(), profile).ok());
    }
  }

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));

  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, generated.seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = bed.Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "node " << node << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyFuzzSweep,
                         ::testing::Values(3u, 17u, 23u, 101u, 999u));

TEST(RobustnessTest, ZeroDataNetworkCompletesCleanly) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 0;  // nothing to move
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));
  EXPECT_EQ(bed.network().stats().MessagesOfType(MessageType::kUpdateData),
            0u);
}

TEST(RobustnessTest, SingleNodeNetworkUpdatesInstantly) {
  WorkloadOptions options;
  options.nodes = 1;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeChain(options);  // no rules
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.node("n0")->update_manager()->IsComplete(update.value()));
}

TEST(RobustnessTest, ConcurrentUpdatesFromDifferentInitiators) {
  // Two updates in flight simultaneously: both terminate, final state is
  // the same as running either alone (idempotent data migration). The
  // existential style is the case where the overlap costs something: each
  // full flow restates what the other shipped, so a re-derived frontier
  // can go out twice with fresh nulls, which only the certain part hides.
  for (RuleStyle style : {RuleStyle::kCopy, RuleStyle::kProject}) {
    SCOPED_TRACE(style == RuleStyle::kCopy ? "copy" : "project");
    WorkloadOptions options;
    options.nodes = 5;
    options.tuples_per_node = 4;
    options.style = style;
    GeneratedNetwork generated = MakeRing(options);

    Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
    ASSERT_TRUE(testbed.ok());
    Testbed& bed = *testbed.value();

    Result<FlowId> first = bed.node("n0")->StartGlobalUpdate();
    Result<FlowId> second = bed.node("n2")->StartGlobalUpdate();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    bed.network().Run();

    EXPECT_TRUE(bed.AllComplete(first.value()));
    EXPECT_TRUE(bed.AllComplete(second.value()));

    Result<NetworkInstance> oracle =
        Oracle::PathBounded(generated.config, generated.seeds);
    ASSERT_TRUE(oracle.ok());
    NetworkInstance actual = bed.Snapshot();
    for (const auto& [node, instance] : oracle.value()) {
      EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
          << "node " << node;
    }
  }
}

}  // namespace
}  // namespace codb
