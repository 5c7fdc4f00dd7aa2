// Discrete-event scheduler for the network simulator.
//
// Events are (time, sequence, callback); ties in time run in scheduling
// order, making runs fully deterministic.  Time is in seconds (double):
// the scales involved (nanosecond transmissions, millisecond windows)
// stay well inside the 2^53 integer-exact range.
//
// Callbacks are InlineEvents (move-only closures stored inline up to 64
// bytes) kept in a slab: a pending event's callback sits in one slot
// from schedule until dispatch, and freed slots are reused, so a warmed
// queue performs no heap allocation.  A binary min-heap orders only
// 24-byte (time, seq, slot) keys: O(log n) schedule and pop.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/inline_event.hpp"

namespace empls::net {

using SimTime = double;

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`.  A time already in the past is
  /// clamped to now() (and counted in stats().clamped) — time travel
  /// would break the monotone-clock invariant every component assumes.
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    schedule_event(at, InlineEvent(std::forward<F>(fn)));
  }

  /// Schedule `fn` `delay` seconds from now.
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    schedule_event(now_ + delay, InlineEvent(std::forward<F>(fn)));
  }

  /// Non-template core used by the helpers above.
  void schedule_event(SimTime at, InlineEvent fn);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Run events until the queue drains or `until` is passed (events
  /// scheduled later than `until` stay queued).  Returns the number of
  /// events executed.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue drains.
  std::uint64_t run();

  /// Earliest pending event time, or +inf when the queue is empty.
  [[nodiscard]] SimTime next_time() const noexcept;

  /// Execute exactly one event (the global (time, seq) minimum).
  /// Returns false if the queue was empty.  Used by the deterministic
  /// cross-domain merge, which interleaves single events from several
  /// domain queues in global (time, domain) order.
  bool step();

  /// Run events with time strictly before `end` (or <= `end` when
  /// `inclusive`), then advance now() to `end`.  This is the conservative
  /// lookahead window primitive: strict `<` keeps window boundaries
  /// exclusive so a handoff arriving exactly at the window edge executes
  /// in the *next* window on its destination domain.
  std::uint64_t run_window(SimTime end, bool inclusive);

  /// Advance the clock without running events (now() is monotone; a
  /// target in the past is a no-op).  Domains that idle through a window
  /// still need their clock at the barrier edge so late schedules clamp
  /// consistently.
  void advance_to(SimTime t) noexcept {
    if (t > now_) {
      now_ = t;
    }
  }

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t clamped = 0;        // schedule_at(at < now()) fixups
    std::uint64_t events_inline = 0;  // closures in the 64-byte buffer
    std::uint64_t events_heap_fallback = 0;  // oversized closures
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Regression guard for the past-scheduling clamp.
  [[nodiscard]] std::uint64_t clamped_schedules() const noexcept {
    return stats_.clamped;
  }

 private:
  /// What the heap orders: an event's (time, seq) and the slab slot
  /// holding its callback.  A heap sift moves these 24 bytes, never a
  /// closure.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  void push(const Key& key);
  /// Pop the global (time, seq) minimum; the queue must be non-empty.
  Key pop();
  /// Run the popped event: its callback leaves the slab first.
  void dispatch(const Key& key);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;

  // Callback slab: slab_[k.slot] holds the callback of the pending event
  // with key k; free_ lists the empty slots, reused last-freed first.
  std::vector<InlineEvent> slab_;
  std::vector<std::uint32_t> free_;

  // A min-heap of keys over (time, seq), kept with std::push_heap /
  // std::pop_heap.
  std::vector<Key> heap_;
};

}  // namespace empls::net
