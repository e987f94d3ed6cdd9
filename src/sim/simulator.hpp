// Discrete-event simulation core.
//
// A Simulator owns a time-ordered queue of events. Events scheduled for the
// same time fire in scheduling order (stable FIFO tie-break), which makes
// whole experiments deterministic. Events are cancellable through handles;
// cancellation is lazy (cancelled records are skipped at pop time).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace phisched {

class Simulator;

namespace detail {
struct EventRecord {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
  bool cancelled = false;
  /// Owning simulator, for the live-event counter. Records only live in
  /// their simulator's heap, so the pointer is valid whenever a handle's
  /// weak_ptr still locks.
  Simulator* owner = nullptr;
};
}  // namespace detail

/// Handle to a scheduled event; cancel() is a no-op once the event fired.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call multiple times and after
  /// the event has already run.
  void cancel();

  /// True if the event is still scheduled to fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  explicit EventHandle(std::weak_ptr<detail::EventRecord> rec)
      : record_(std::move(rec)) {}
  std::weak_ptr<detail::EventRecord> record_;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, Callback fn);

  /// Runs the next pending event, if any. Returns false when idle.
  bool step();

  /// Runs until the queue drains. Returns the number of events processed.
  /// Throws InternalError after `max_events` as a runaway guard.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Runs events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(SimTime t, std::size_t max_events = kDefaultMaxEvents);

  /// True when no non-cancelled events remain.
  [[nodiscard]] bool idle() const;

  /// Number of pending, non-cancelled events. O(1): a live counter is
  /// bumped on schedule and dropped on fire or EventHandle::cancel().
  [[nodiscard]] std::size_t pending_events() const { return live_; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  friend class EventHandle;  // cancel() maintains live_

  /// Min-heap ordering: earliest (time, seq) on top.
  static bool later(const std::shared_ptr<detail::EventRecord>& a,
                    const std::shared_ptr<detail::EventRecord>& b);

  /// Drops cancelled records from the heap top.
  void skim();

  SimTime now_ = 0.0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<std::shared_ptr<detail::EventRecord>> heap_;
};

}  // namespace phisched
