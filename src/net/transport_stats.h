// Transport-level counters: messages and bytes per message type, plus
// losses and injected faults. These feed the statistics the paper's demo
// collects ("number of query result messages received per coordination
// rule and the volume of the data in each message").

#ifndef CODB_NET_TRANSPORT_STATS_H_
#define CODB_NET_TRANSPORT_STATS_H_

#include <cstdint>
#include <map>
#include <string>

#include "net/message.h"
#include "obs/metrics.h"

namespace codb {

class TransportStats {
 public:
  void RecordSend(const Message& message);
  void RecordDrop(const Message& message);

  // Injected faults (net/fault.h). Distinct from RecordDrop, which counts
  // messages lost to dead peers / closed pipes.
  void RecordInjectedDrop() { ++injected_drops_; }
  void RecordInjectedDup() { ++injected_dups_; }
  void RecordInjectedDelay() { ++injected_delays_; }

  uint64_t total_messages() const { return total_messages_; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t dropped_messages() const { return dropped_messages_; }
  uint64_t injected_drops() const { return injected_drops_; }
  uint64_t injected_dups() const { return injected_dups_; }
  uint64_t injected_delays() const { return injected_delays_; }

  uint64_t MessagesOfType(MessageType type) const;
  uint64_t BytesOfType(MessageType type) const;

  void Reset();

  // Uniform snapshot: net.messages / net.bytes / net.dropped plus
  // net.msgs.<TYPE> and net.bytes.<TYPE> per message type seen.
  MetricsSnapshot Snapshot() const;

  // Multi-line per-type breakdown, rendered from Snapshot() so the human
  // and machine-readable views cannot drift.
  std::string Report() const;

 private:
  struct TypeCounters {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  uint64_t total_messages_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t dropped_messages_ = 0;
  uint64_t injected_drops_ = 0;
  uint64_t injected_dups_ = 0;
  uint64_t injected_delays_ = 0;
  std::map<MessageType, TypeCounters> per_type_;
};

}  // namespace codb

#endif  // CODB_NET_TRANSPORT_STATS_H_
