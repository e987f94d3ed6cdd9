#include "sim/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace phisched {

void EventHandle::cancel() {
  auto rec = record_.lock();
  if (rec == nullptr || rec->cancelled) return;
  // A null fn means the event already fired (cancel-from-within-own-
  // callback); its live count was consumed when it was popped.
  if (rec->fn != nullptr) {
    PHISCHED_DCHECK(rec->owner->live_ > 0,
                    "live-event counter underflow cancelling event seq=",
                    rec->seq, " t=", rec->time);
    --rec->owner->live_;
  }
  rec->cancelled = true;
}

bool EventHandle::pending() const {
  auto rec = record_.lock();
  return rec != nullptr && !rec->cancelled && rec->fn != nullptr;
}

bool Simulator::later(const std::shared_ptr<detail::EventRecord>& a,
                      const std::shared_ptr<detail::EventRecord>& b) {
  if (a->time != b->time) return a->time > b->time;
  return a->seq > b->seq;
}

EventHandle Simulator::schedule_at(SimTime t, Callback fn) {
  PHISCHED_REQUIRE(t >= now_, "schedule_at: cannot schedule in the past (t=",
                   t, " now=", now_, ")");
  PHISCHED_REQUIRE(fn != nullptr, "schedule_at: null callback (t=", t, ")");
  auto rec = std::make_shared<detail::EventRecord>();
  rec->time = t;
  rec->seq = next_seq_++;
  rec->fn = std::move(fn);
  rec->owner = this;
  ++live_;
  heap_.push_back(rec);
  std::push_heap(heap_.begin(), heap_.end(), later);
  return EventHandle(rec);
}

EventHandle Simulator::schedule_in(SimTime delay, Callback fn) {
  PHISCHED_REQUIRE(delay >= 0.0, "schedule_in: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::skim() {
  while (!heap_.empty() && heap_.front()->cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

bool Simulator::step() {
  skim();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  auto rec = std::move(heap_.back());
  heap_.pop_back();
  PHISCHED_DCHECK(rec->time >= now_,
                  "event clock went backwards: event t=", rec->time,
                  " seq=", rec->seq, " now=", now_);
  now_ = rec->time;
  ++processed_;
  --live_;
  auto fn = std::move(rec->fn);
  rec->fn = nullptr;  // marks the record as fired for EventHandle::pending
  fn();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (step()) {
    PHISCHED_CHECK(++n <= max_events, "simulation exceeded event budget (",
                   max_events, " events; t=", now_, ")");
  }
  return n;
}

std::size_t Simulator::run_until(SimTime t, std::size_t max_events) {
  PHISCHED_REQUIRE(t >= now_, "run_until: target time in the past (t=", t,
                   " now=", now_, ")");
  std::size_t n = 0;
  for (;;) {
    skim();
    if (heap_.empty() || heap_.front()->time > t) break;
    step();
    PHISCHED_CHECK(++n <= max_events, "simulation exceeded event budget (",
                   max_events, " events; t=", now_, ")");
  }
  now_ = t;
  return n;
}

bool Simulator::idle() const { return pending_events() == 0; }

}  // namespace phisched
