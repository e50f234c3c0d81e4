#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "util/logging.h"

namespace codb {

Status Network::Enqueue(std::unique_ptr<Message> message, int64_t sent_us,
                        int64_t arrival_us) {
  Event event;
  event.time_us = arrival_us;
  event.sent_us = sent_us;
  const bool maintenance = message->maintenance;
  event.message = std::move(message);
  PushEvent(std::move(event), maintenance);
  return Status::Ok();
}

void Network::ScheduleAt(int64_t time_us, std::function<void()> action) {
  Event event;
  event.time_us = std::max(time_us, now_us_);
  event.action = std::move(action);
  PushEvent(std::move(event), /*maintenance=*/false);
}

void Network::ScheduleMaintenance(int64_t delay_us,
                                  std::function<void()> action) {
  Event event;
  event.time_us = now_us_ + std::max<int64_t>(delay_us, 0);
  event.action = std::move(action);
  PushEvent(std::move(event), /*maintenance=*/true);
}

void Network::PushEvent(Event event, bool maintenance) {
  event.seq = next_seq_++;
  std::vector<Event>& lane = maintenance ? maintenance_events_ : events_;
  lane.push_back(std::move(event));
  std::push_heap(lane.begin(), lane.end(), EventLater());
  profiler_.NoteQueueDepth(maintenance, lane.size());
}

bool Network::PopNext(bool include_maintenance, Event* out) {
  const bool have_fg = !events_.empty();
  const bool have_mt = include_maintenance && !maintenance_events_.empty();
  if (!have_fg && !have_mt) return false;
  bool take_maintenance;
  if (have_fg && have_mt) {
    // Merge the lanes: earliest time wins, seq breaks ties, so the merged
    // order is exactly what a single heap would have produced.
    const Event& fg = events_.front();
    const Event& mt = maintenance_events_.front();
    take_maintenance = mt.time_us < fg.time_us ||
                       (mt.time_us == fg.time_us && mt.seq < fg.seq);
  } else {
    take_maintenance = have_mt;
  }
  std::vector<Event>& lane = take_maintenance ? maintenance_events_ : events_;
  std::pop_heap(lane.begin(), lane.end(), EventLater());
  *out = std::move(lane.back());
  lane.pop_back();
  return true;
}

void Network::Dispatch(const Event& event) {
  // Foreground time is monotone; a maintenance event can surface "late"
  // when Run() advanced the clock past its due point while it sat queued,
  // so the clock only ever moves forward.
  now_us_ = std::max(now_us_, event.time_us);
  if (Tracer::Global().enabled()) Tracer::SetVirtualTime(now_us_);

  if (event.message != nullptr) {
    Deliver(*event.message, event.sent_us);
  } else if (event.action) {
    // For timers, lag is how far past its due time the virtual clock had
    // already advanced when the action ran (maintenance events surfacing
    // late under Run(); always 0 for foreground timers).
    profiler_.RecordTimerLag(now_us_ - event.time_us);
    event.action();
  }
}

bool Network::Step() {
  Event event;
  if (!PopNext(/*include_maintenance=*/false, &event)) return false;
  assert(event.time_us >= now_us_ && "virtual time must be monotone");
  Dispatch(event);
  return true;
}

uint64_t Network::Run(uint64_t max_events) {
  uint64_t processed = 0;
  while (processed < max_events && Step()) {
    ++processed;
  }
  if (processed == max_events) {
    CODB_LOG(kWarning) << "network: Run() hit the event cap ("
                       << max_events << ")";
  }
  return processed;
}

uint64_t Network::RunUntil(int64_t deadline_us) {
  uint64_t processed = 0;
  for (;;) {
    const bool have_fg = !events_.empty();
    const bool have_mt = !maintenance_events_.empty();
    if (!have_fg && !have_mt) break;
    int64_t next_due = INT64_MAX;
    if (have_fg) next_due = std::min(next_due, events_.front().time_us);
    if (have_mt) {
      next_due = std::min(next_due, maintenance_events_.front().time_us);
    }
    if (next_due > deadline_us) break;
    Event event;
    PopNext(/*include_maintenance=*/true, &event);
    Dispatch(event);
    ++processed;
  }
  now_us_ = std::max(now_us_, deadline_us);
  return processed;
}

}  // namespace codb
