// Payloads of the coDB protocol messages and their wire formats.
//
// Both distributed computations (global update, query answering) are
// diffusing computations; they share the FlowId naming scheme and the
// acknowledgement format used by the termination detector.

#ifndef CODB_CORE_PROTOCOL_H_
#define CODB_CORE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/peer_id.h"
#include "relation/wire.h"
#include "query/rule.h"
#include "util/status.h"

namespace codb {

// Identifies one diffusing computation network-wide: the peer that started
// it plus a sequence number local to that peer. The paper generates global
// update identifiers through JXTA; this pair gives the same uniqueness.
struct FlowId {
  enum class Scope : uint8_t { kUpdate = 0, kQuery = 1 };

  Scope scope = Scope::kUpdate;
  uint32_t origin = 0;
  uint64_t seq = 0;

  // Encoded size: scope u8 + origin u32 + seq u64.
  static constexpr size_t kWireBytes = 13;

  friend bool operator==(const FlowId& a, const FlowId& b) {
    return a.scope == b.scope && a.origin == b.origin && a.seq == b.seq;
  }
  friend auto operator<=>(const FlowId& a, const FlowId& b) = default;

  std::string ToString() const;
};

// -- global update -----------------------------------------------------------

// Flooded over every acquaintance by a full or refresh update; the first
// one a peer receives joins it. An incremental update sends none: its
// data messages engage the peers the delta reaches.
struct UpdateRequestPayload {
  FlowId update;
  // Refresh updates first drop every previously imported tuple, so
  // source-side deletions propagate network-wide.
  bool refresh = false;

  std::vector<uint8_t> Serialize() const;
  static Result<UpdateRequestPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// Data shipped from an exporter to the importer of `rule_id`: instantiated
// head tuples, labelled with the update-propagation path (the node ids the
// data passed through, ending with the sender).
struct UpdateDataPayload {
  FlowId update;
  std::string rule_id;
  std::vector<uint32_t> path;
  std::vector<HeadTuple> tuples;
  // Incremental (semi-naive) flow: no request precedes its data, so the
  // first data message a peer receives joins it in that mode (DESIGN.md
  // §14). On the wire right after the FlowId.
  bool incremental = false;

  std::vector<uint8_t> Serialize() const;
  static Result<UpdateDataPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// Exporter -> importer: no more data will arrive through `rule_id`. Full
// and refresh updates only; an incremental update closes no links.
struct LinkClosedPayload {
  FlowId update;
  std::string rule_id;

  std::vector<uint8_t> Serialize() const;
  static Result<LinkClosedPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// Dijkstra–Scholten acknowledgement of one basic message of a flow.
struct AckPayload {
  FlowId flow;
  std::vector<uint8_t> Serialize() const;
  static Result<AckPayload> Deserialize(const std::vector<uint8_t>& payload);
};

// Transport-level receipt for a sequenced message (core/reliability.h):
// sent immediately on arrival — duplicate or not — to cancel the sender's
// retransmission timer. Unlike AckPayload it carries no termination
// semantics and is itself never sequenced or retransmitted.
struct DeliveryAckPayload {
  FlowId flow;
  uint32_t acked_seq = 0;
  std::vector<uint8_t> Serialize() const;
  static Result<DeliveryAckPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// Sent by the initiator once its diffusing computation has terminated and
// passed on by each peer that receives it: over every acquaintance in a
// full or refresh update, and in an incremental one only to the importers
// the peer shipped data to.
struct UpdateCompletePayload {
  FlowId update;
  std::vector<uint8_t> Serialize() const;
  static Result<UpdateCompletePayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// -- query answering ---------------------------------------------------------

// Origin or relay -> exporter of `rule_id`: evaluate the rule for this
// query and stream results back. `label` is the node-id path of the
// request; a request is not propagated to a node already in the label.
struct QueryRequestPayload {
  FlowId query;
  std::string rule_id;
  std::vector<uint32_t> label;

  std::vector<uint8_t> Serialize() const;
  static Result<QueryRequestPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// Exporter -> requester: (incremental) results for `rule_id`.
struct QueryResultPayload {
  FlowId query;
  std::string rule_id;
  std::vector<HeadTuple> tuples;

  std::vector<uint8_t> Serialize() const;
  static Result<QueryResultPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// Origin -> participants: the query's diffusing computation terminated;
// per-query state can be dropped.
struct QueryDonePayload {
  FlowId query;
  std::vector<uint8_t> Serialize() const;
  static Result<QueryDonePayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// -- super-peer --------------------------------------------------------------

struct StatsRequestPayload {
  uint64_t request_id = 0;
  std::vector<uint8_t> Serialize() const;
  static Result<StatsRequestPayload> Deserialize(
      const std::vector<uint8_t>& payload);
};

// -- helpers -----------------------------------------------------------------

// Serialization of HeadTuple batches shared by data/result payloads.
void WriteHeadTuples(WireWriter& writer, const std::vector<HeadTuple>& tuples);
Result<std::vector<HeadTuple>> ReadHeadTuples(WireReader& reader);

// Builds a Message envelope.
Message MakeMessage(PeerId src, PeerId dst, MessageType type,
                    std::vector<uint8_t> payload);

// Reads the FlowId prefix every flow-scoped payload starts with, without
// deserializing the rest. Used by the reliability layer to receipt-ack a
// sequenced message before (and regardless of) full parsing.
Result<FlowId> PeekFlowId(const std::vector<uint8_t>& payload);

}  // namespace codb

#endif  // CODB_CORE_PROTOCOL_H_
