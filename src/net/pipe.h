// Pipes: point-to-point communication links between peers.
//
// As in JXTA, peers communicate over explicitly created pipes; coDB nodes
// create a pipe to every node they have coordination rules with, several
// rules can share one pipe, and a pipe that loses its last rule is closed
// (paper, section 3). The pipe carries the cost model of the simulated
// link: a propagation latency plus a serialization delay (bytes/bandwidth)
// with FIFO ordering per direction.

#ifndef CODB_NET_PIPE_H_
#define CODB_NET_PIPE_H_

#include <cstdint>
#include <string>

#include "net/fault.h"
#include "net/peer_id.h"

namespace codb {

// Link cost parameters. Times are in virtual microseconds; bandwidth in
// bytes per virtual microsecond (i.e. MB/s). The fault profile defaults
// to faultless; see net/fault.h.
struct LinkProfile {
  int64_t latency_us = 1000;     // one-way propagation delay
  double bandwidth_bpus = 10.0;  // serialization rate
  FaultProfile fault;

  static LinkProfile Lan() { return {/*latency*/ 200, /*bw*/ 100.0, {}}; }
};

// One direction of a pipe between two peers.
class Pipe {
 public:
  Pipe(PeerId from, PeerId to, LinkProfile profile)
      : from_(from),
        to_(to),
        profile_(profile),
        injector_(profile.fault, from, to) {}

  PeerId from() const { return from_; }
  PeerId to() const { return to_; }

  bool open() const { return open_; }
  void Close() { open_ = false; }

  // Computes the arrival time of a message of `bytes` sent at `now`,
  // modelling FIFO serialization: transmission starts when the link is
  // free, takes bytes/bandwidth, then the latency elapses in flight.
  int64_t ScheduleArrival(int64_t now, size_t bytes);

  // Replaces the fault profile and restarts its deterministic sequence
  // (used by churn scripts to start/heal partitions mid-run).
  void SetFault(const FaultProfile& fault);

  // Advances the injector by one message.
  FaultInjector::Decision NextFault() { return injector_.Next(); }

  std::string ToString() const;

 private:
  PeerId from_;
  PeerId to_;
  LinkProfile profile_;
  bool open_ = true;
  int64_t busy_until_ = 0;
  FaultInjector injector_;
};

}  // namespace codb

#endif  // CODB_NET_PIPE_H_
