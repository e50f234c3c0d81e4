// Unit tests for the Dijkstra–Scholten termination detector.

#include <gtest/gtest.h>

#include <vector>

#include "core/termination.h"

namespace codb {
namespace {

class TerminationTest : public ::testing::Test {
 protected:
  TerminationTest()
      : detector_(PeerId(0), [this](PeerId to, const FlowId& flow) {
          acks_sent.push_back({to, flow});
        }) {}

  FlowId flow_{FlowId::Scope::kUpdate, 0, 1};
  std::vector<std::pair<PeerId, FlowId>> acks_sent;
  std::vector<FlowId> terminated;
  TerminationDetector detector_;

  TerminationDetector::TerminatedFn OnTerminated() {
    return [this](const FlowId& flow) { terminated.push_back(flow); };
  }
};

TEST_F(TerminationTest, RootWithNoTrafficTerminatesImmediately) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
  EXPECT_EQ(terminated[0], flow_);
  // Termination fires once, even with repeated idle checks.
  detector_.MaybeQuiesce();
  EXPECT_EQ(terminated.size(), 1u);
}

TEST_F(TerminationTest, RootWaitsForAcks) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnSent(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());
  EXPECT_EQ(detector_.DeficitOf(flow_), 2u);

  detector_.OnAck(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());

  detector_.OnAck(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
}

TEST_F(TerminationTest, NonRootDefersFirstAckUntilQuiet) {
  // First message engages; no immediate ack.
  detector_.OnBasicMessage(flow_, PeerId(7));
  EXPECT_TRUE(acks_sent.empty());
  EXPECT_TRUE(detector_.IsEngaged(flow_));

  // Second message from elsewhere is acked immediately.
  detector_.OnBasicMessage(flow_, PeerId(8));
  ASSERT_EQ(acks_sent.size(), 1u);
  EXPECT_EQ(acks_sent[0].first, PeerId(8));

  // We sent something ourselves: cannot disengage yet.
  detector_.OnSent(flow_, PeerId(9));
  detector_.MaybeQuiesce();
  EXPECT_EQ(acks_sent.size(), 1u);
  EXPECT_TRUE(detector_.IsEngaged(flow_));

  // Our message is acked: now the deferred parent ack goes out.
  detector_.OnAck(flow_, PeerId(9));
  detector_.MaybeQuiesce();
  ASSERT_EQ(acks_sent.size(), 2u);
  EXPECT_EQ(acks_sent[1].first, PeerId(7));
  EXPECT_FALSE(detector_.IsEngaged(flow_));
}

TEST_F(TerminationTest, ReengagementAfterDisengage) {
  detector_.OnBasicMessage(flow_, PeerId(7));
  detector_.MaybeQuiesce();  // disengages, acks 7
  ASSERT_EQ(acks_sent.size(), 1u);

  // A later message re-engages with a new parent.
  detector_.OnBasicMessage(flow_, PeerId(8));
  EXPECT_TRUE(detector_.IsEngaged(flow_));
  detector_.MaybeQuiesce();
  ASSERT_EQ(acks_sent.size(), 2u);
  EXPECT_EQ(acks_sent[1].first, PeerId(8));
}

TEST_F(TerminationTest, IndependentFlowsDoNotInterfere) {
  FlowId other{FlowId::Scope::kQuery, 3, 9};
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnBasicMessage(other, PeerId(2));
  detector_.OnSent(other, PeerId(4));

  detector_.OnAck(other, PeerId(4));
  detector_.MaybeQuiesce();
  // `other` disengaged (ack to 2); `flow_` still pending.
  ASSERT_EQ(acks_sent.size(), 1u);
  EXPECT_EQ(acks_sent[0].first, PeerId(2));
  EXPECT_TRUE(terminated.empty());
  EXPECT_FALSE(detector_.IsEngaged(other));
  EXPECT_TRUE(detector_.IsEngaged(flow_));
}

TEST_F(TerminationTest, PeerLossCancelsDeficit) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnSent(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());

  // Peer 1 dies with two outstanding messages.
  detector_.OnPeerLost(PeerId(1));
  EXPECT_EQ(detector_.DeficitOf(flow_), 1u);
  detector_.OnAck(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
}

TEST_F(TerminationTest, OrphanedNodeDisengagesSilently) {
  detector_.OnBasicMessage(flow_, PeerId(7));  // engaged with parent 7
  detector_.OnSent(flow_, PeerId(9));
  detector_.OnPeerLost(PeerId(7));  // parent gone
  detector_.OnAck(flow_, PeerId(9));
  detector_.MaybeQuiesce();
  // No ack was sent to the dead parent.
  EXPECT_TRUE(acks_sent.empty());
  EXPECT_FALSE(detector_.IsEngaged(flow_));
}

TEST_F(TerminationTest, StrayAckIsIgnored) {
  // No crash, no spurious state, on an ack for an unknown flow.
  detector_.OnAck(flow_, PeerId(3));
  EXPECT_EQ(detector_.DeficitOf(flow_), 0u);
}

TEST_F(TerminationTest, DuplicateAckDoesNotUnderflowDeficit) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnSent(flow_, PeerId(2));

  detector_.OnAck(flow_, PeerId(1));
  // A duplicated ack from the same peer must be dropped, not counted
  // against peer 2's outstanding message.
  detector_.OnAck(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());
  EXPECT_EQ(detector_.DeficitOf(flow_), 1u);

  detector_.OnAck(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
}

TEST_F(TerminationTest, AckAfterPeerLostIsDropped) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnSent(flow_, PeerId(2));

  // Peer 1's deficit is cancelled; its in-flight ack then arrives anyway
  // (loss was a partition, not a death). It must not be matched against
  // peer 2's bucket.
  detector_.OnPeerLost(PeerId(1));
  detector_.OnAck(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());
  EXPECT_EQ(detector_.DeficitOf(flow_), 1u);

  detector_.OnAck(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
}

TEST_F(TerminationTest, AckFromPeerNeverSentToIsDropped) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));

  // The flow is known but peer 2 owes us nothing: a forged/rerouted ack
  // must not release peer 1's deficit.
  detector_.OnAck(flow_, PeerId(2));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());
  EXPECT_EQ(detector_.DeficitOf(flow_), 1u);

  detector_.OnAck(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
}

TEST_F(TerminationTest, LostParentWithZeroDeficitThenReengage) {
  // Engaged with nothing outstanding: losing the parent must disengage
  // immediately (no MaybeQuiesce in the peer-lost path fires for us).
  detector_.OnBasicMessage(flow_, PeerId(7));
  detector_.OnPeerLost(PeerId(7));
  EXPECT_FALSE(detector_.IsEngaged(flow_));
  EXPECT_TRUE(acks_sent.empty());

  // A later wave re-engages cleanly with the new parent.
  detector_.OnBasicMessage(flow_, PeerId(8));
  EXPECT_TRUE(detector_.IsEngaged(flow_));
  detector_.MaybeQuiesce();
  ASSERT_EQ(acks_sent.size(), 1u);
  EXPECT_EQ(acks_sent[0].first, PeerId(8));
}

TEST_F(TerminationTest, CancelOneReleasesExactlyOneUnit) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));
  detector_.OnSent(flow_, PeerId(1));

  detector_.CancelOne(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());
  EXPECT_EQ(detector_.DeficitOf(flow_), 1u);

  detector_.CancelOne(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  ASSERT_EQ(terminated.size(), 1u);
  // Further cancels are no-ops.
  detector_.CancelOne(flow_, PeerId(1));
  EXPECT_EQ(detector_.DeficitOf(flow_), 0u);
}

TEST_F(TerminationTest, AbortAtRootSkipsTerminationCallback) {
  detector_.StartRoot(flow_, OnTerminated());
  detector_.OnSent(flow_, PeerId(1));

  detector_.Abort(flow_);
  EXPECT_EQ(detector_.DeficitOf(flow_), 0u);
  // The caller reports the abort itself; on_terminated stays unfired even
  // across later idle checks and stray acks.
  detector_.MaybeQuiesce();
  detector_.OnAck(flow_, PeerId(1));
  detector_.MaybeQuiesce();
  EXPECT_TRUE(terminated.empty());
  // Still terminated, so a deadline firing later finds nothing to abort.
  EXPECT_TRUE(detector_.IsTerminated(flow_));
}

TEST_F(TerminationTest, AbortAtNonRootSendsDeferredParentAck) {
  detector_.OnBasicMessage(flow_, PeerId(7));
  detector_.OnSent(flow_, PeerId(9));

  detector_.Abort(flow_);
  ASSERT_EQ(acks_sent.size(), 1u);
  EXPECT_EQ(acks_sent[0].first, PeerId(7));
  EXPECT_FALSE(detector_.IsEngaged(flow_));
  EXPECT_EQ(detector_.DeficitOf(flow_), 0u);
}

TEST_F(TerminationTest, PerFlowCheckQuiescesOnlyTheNamedFlow) {
  // Three idle flows: two engaged non-roots and a root.
  const FlowId other{FlowId::Scope::kQuery, 0, 2};
  const FlowId rooted{FlowId::Scope::kUpdate, 0, 3};
  detector_.OnBasicMessage(flow_, PeerId(7));
  detector_.OnBasicMessage(other, PeerId(8));
  detector_.StartRoot(rooted, OnTerminated());

  detector_.MaybeQuiesce(flow_);
  ASSERT_EQ(acks_sent.size(), 1u);
  EXPECT_EQ(acks_sent[0].first, PeerId(7));
  EXPECT_EQ(acks_sent[0].second, flow_);
  EXPECT_FALSE(detector_.IsEngaged(flow_));
  // Every other flow is untouched, idle as it is.
  EXPECT_TRUE(detector_.IsEngaged(other));
  EXPECT_TRUE(terminated.empty());
  EXPECT_FALSE(detector_.IsTerminated(rooted));

  detector_.MaybeQuiesce(rooted);
  ASSERT_EQ(terminated.size(), 1u);
  EXPECT_EQ(terminated[0], rooted);
  EXPECT_TRUE(detector_.IsTerminated(rooted));
  EXPECT_TRUE(detector_.IsEngaged(other));
  EXPECT_EQ(acks_sent.size(), 1u);

  // An unknown flow is a no-op, and creates no state.
  const FlowId unknown{FlowId::Scope::kUpdate, 9, 9};
  detector_.MaybeQuiesce(unknown);
  EXPECT_EQ(acks_sent.size(), 1u);
  EXPECT_FALSE(detector_.IsEngaged(unknown));
  EXPECT_FALSE(detector_.IsTerminated(unknown));

  // The all-flows sweep still reaches the rest.
  detector_.MaybeQuiesce();
  ASSERT_EQ(acks_sent.size(), 2u);
  EXPECT_EQ(acks_sent[1].second, other);
  EXPECT_EQ(terminated.size(), 1u);
}

}  // namespace
}  // namespace codb
