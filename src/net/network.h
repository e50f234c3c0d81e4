// The simulated P2P network: a deterministic discrete-event message bus.
//
// This is the stand-in for JXTA (see DESIGN.md §1). Peers join under a
// name, open pipes to other peers, and exchange messages; the simulator
// delivers each message after the pipe's latency/bandwidth cost, in a
// single virtual timeline. Everything is deterministic: the same inputs
// produce the same delivery order, message counts and byte volumes, which
// is what makes the experiment suite reproducible.
//
// Churn (dynamic networks, a design goal of the paper) is first-class:
// peers can leave, pipes can drop, and actions can be scheduled at virtual
// times to rewire the network mid-experiment. In-flight messages to a dead
// peer or across a closed pipe are dropped, like packets on a cut link.
//
// Peers, pipes, faults, accounting and delivery live in NetworkBase
// (net/network_interface.h); this class is the event heap, the virtual
// clock and the loop that drains them.

#ifndef CODB_NET_NETWORK_H_
#define CODB_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network_interface.h"

namespace codb {

class Network : public NetworkBase {
 public:
  Network() = default;
  ~Network() override = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  using NetworkBase::Run;

  // Schedules `action` to run at the given virtual time (or `delay` from
  // now). Used for churn scripts and node timers.
  void ScheduleAt(int64_t time_us, std::function<void()> action) override;
  void ScheduleMaintenance(int64_t delay_us,
                           std::function<void()> action) override;

  // -- simulation loop ----------------------------------------------------

  int64_t now_us() const override { return now_us_; }

  // Processes the next foreground event; false if none are queued.
  // Maintenance events (heartbeat ticks and beacon traffic) stay queued —
  // see RunUntil.
  bool Step();

  // Runs until no foreground events remain or `max_events`; returns
  // events processed. Pending maintenance events do not block quiescence.
  uint64_t Run(uint64_t max_events) override;

  // Runs every event — foreground AND maintenance — due at or before
  // `deadline_us`, then advances the virtual clock to the deadline.
  uint64_t RunUntil(int64_t deadline_us) override;

 protected:
  Status Enqueue(std::unique_ptr<Message> message, int64_t sent_us,
                 int64_t arrival_us) override;
  // Delivered at once, on the caller's thread.
  void NotifyPipeClosed(PeerId peer, PeerId other) override {
    DeliverPipeClosed(peer, other);
  }

 private:
  struct Event {
    int64_t time_us = 0;
    uint64_t seq = 0;  // FIFO tie-break for equal timestamps
    // A message's send time, from which Deliver() measures its wire
    // sojourn (pipe latency plus bandwidth queueing).
    int64_t sent_us = 0;
    // Exactly one of the two is set.
    std::unique_ptr<Message> message;
    std::function<void()> action;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_us != b.time_us) return a.time_us > b.time_us;
      return a.seq > b.seq;
    }
  };

  // Stamps the FIFO seq and pushes onto the event's lane.
  void PushEvent(Event event, bool maintenance);
  // Pops the next due event; considers the maintenance lane only when
  // `include_maintenance`. Returns false if nothing qualifies.
  bool PopNext(bool include_maintenance, Event* out);
  void Dispatch(const Event& event);

  // Touched only by the thread driving the simulation, so mu_ does not
  // guard them. priority_queue does not allow moving out of top(); use
  // mutable heaps. Foreground and maintenance events live in separate
  // lanes sharing one seq counter, so a merged pop is still globally FIFO
  // at equal times.
  std::vector<Event> events_;
  std::vector<Event> maintenance_events_;
  uint64_t next_seq_ = 0;
  int64_t now_us_ = 0;
};

}  // namespace codb

#endif  // CODB_NET_NETWORK_H_
