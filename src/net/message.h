// Message envelopes.
//
// A JXTA message envelopes arbitrary data; here the envelope is a type tag
// plus a binary payload produced by net/wire.h. The network charges the
// bandwidth model with the payload size plus a fixed header, so the byte
// volumes reported by the statistics module are real serialized sizes.

#ifndef CODB_NET_MESSAGE_H_
#define CODB_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/peer_id.h"

namespace codb {

// Wire-level message kinds. The values are part of the serialized format.
enum class MessageType : uint16_t {
  // Discovery protocol (net layer).
  kAdvertisement = 1,

  // coDB protocol (core layer). Declared here so the envelope is complete;
  // payload formats live in core/protocol.h. Value 10 was the retired
  // full-text config broadcast; do not reuse it.
  kUpdateRequest = 11,
  kUpdateData = 12,
  kLinkClosed = 13,
  kUpdateAck = 14,
  kUpdateComplete = 15,
  kQueryRequest = 16,
  kQueryResult = 17,
  kQueryDone = 18,
  kStatsRequest = 19,
  kStatsReport = 20,

  // Reliability layer (core/reliability.h): immediate transport-level
  // receipt for a sequenced message. Distinct from kUpdateAck, which is
  // the deferred Dijkstra–Scholten engagement ack.
  kDeliveryAck = 21,

  // Membership layer (membership/heartbeat.h): periodic liveness beacon
  // with incarnation + peer-health digest, and its echo (carrying the
  // beacon's send timestamp back for RTT measurement).
  kHeartbeat = 22,
  kHeartbeatAck = 23,

  // Super-peer federation (core/super_peer.h): merged statistics and
  // metrics aggregate exchanged between super-peers.
  kFederationReport = 24,

  // Delta/projected config distribution (core/config_distribution.h).
  // kConfigSlice carries one peer's projected slice of the configuration;
  // kConfigDelta a version-keyed patch between two slice versions;
  // kConfigFetch a receiver's back-order request after a version gap or
  // checksum mismatch; kConfigAck the receiver's applied-version receipt.
  kConfigSlice = 25,
  kConfigDelta = 26,
  kConfigFetch = 27,
  kConfigAck = 28,
};

// One past the largest MessageType value: per-type tables (the cost
// ledger's cells) have this many slots. Raise it with a new type.
inline constexpr size_t kMessageTypeLimit = 29;

const char* MessageTypeName(MessageType type);

struct Message {
  PeerId src;
  PeerId dst;
  MessageType type = MessageType::kAdvertisement;
  std::vector<uint8_t> payload;

  // Per-flow sequence number stamped by the reliability layer
  // (core/reliability.h); 0 means unsequenced. Part of the envelope, so
  // it is charged to the bandwidth model via kHeaderBytes.
  uint32_t seq = 0;

  // Tracing correlation id linking the sender's span to the delivery span
  // (obs/trace.h). In-memory only: never serialized, never charged to the
  // bandwidth model, 0 when tracing is off.
  uint64_t trace_id = 0;

  // Maintenance traffic (heartbeats and their acks) does not count toward
  // quiescence: Run() returns once no *foreground* events remain even if
  // maintenance messages are still queued, so self-re-arming beacon loops
  // cannot keep the network "busy" forever. RunUntil() processes both.
  // In-memory scheduling attribute — never serialized.
  bool maintenance = false;

  // Set by the reliability layer on resends (core/reliability.h) so the
  // cost ledger (obs/cost_ledger.h) can charge retransmitted bytes to the
  // reliability class instead of the payload's own class. In-memory only:
  // never serialized, never part of the wire format.
  bool retransmit = false;

  // Fixed envelope header: source, destination, type, length (12 bytes)
  // plus the sequence number (4 bytes).
  static constexpr size_t kHeaderBytes = 16;

  // Bytes charged to the bandwidth model.
  size_t WireSize() const { return kHeaderBytes + payload.size(); }
};

inline const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kAdvertisement:
      return "ADVERTISEMENT";
    case MessageType::kUpdateRequest:
      return "UPDATE_REQUEST";
    case MessageType::kUpdateData:
      return "UPDATE_DATA";
    case MessageType::kLinkClosed:
      return "LINK_CLOSED";
    case MessageType::kUpdateAck:
      return "UPDATE_ACK";
    case MessageType::kUpdateComplete:
      return "UPDATE_COMPLETE";
    case MessageType::kQueryRequest:
      return "QUERY_REQUEST";
    case MessageType::kQueryResult:
      return "QUERY_RESULT";
    case MessageType::kQueryDone:
      return "QUERY_DONE";
    case MessageType::kStatsRequest:
      return "STATS_REQUEST";
    case MessageType::kStatsReport:
      return "STATS_REPORT";
    case MessageType::kDeliveryAck:
      return "DELIVERY_ACK";
    case MessageType::kHeartbeat:
      return "HEARTBEAT";
    case MessageType::kHeartbeatAck:
      return "HEARTBEAT_ACK";
    case MessageType::kFederationReport:
      return "FEDERATION_REPORT";
    case MessageType::kConfigSlice:
      return "CONFIG_SLICE";
    case MessageType::kConfigDelta:
      return "CONFIG_DELTA";
    case MessageType::kConfigFetch:
      return "CONFIG_FETCH";
    case MessageType::kConfigAck:
      return "CONFIG_ACK";
  }
  return "UNKNOWN";
}

}  // namespace codb

#endif  // CODB_NET_MESSAGE_H_
