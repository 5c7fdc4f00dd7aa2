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
// queue performs no heap allocation.  The backends order only 24-byte
// (time, seq, slot) keys.  Two interchangeable backends share the API
// and produce bit-identical execution order:
//   kHeap     — binary heap of keys, O(log n) schedule/pop (the default);
//   kCalendar — calendar queue (R. Brown, CACM 1988): time is hashed
//               into width-sized bucket days, so schedule and pop are
//               O(1) amortized for the clustered event times traffic
//               generates; a direct-search fallback keeps sparse or
//               irregular workloads correct.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/inline_event.hpp"

namespace empls::net {

using SimTime = double;

enum class SchedulerBackend : std::uint8_t { kHeap, kCalendar };

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
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return size_; }

  /// Run events until the queue drains or `until` is passed (events
  /// scheduled later than `until` stay queued).  Returns the number of
  /// events executed.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue drains.
  std::uint64_t run();

  /// Earliest pending event time, or +inf when the queue is empty.
  /// Non-const: the calendar backend peeks by popping and re-pushing
  /// (the event keeps its sequence number, so order is unchanged).
  [[nodiscard]] SimTime next_time();

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

  /// Select the scheduling backend.  Pending events migrate, so this may
  /// be called at any point; execution order is unaffected (both
  /// backends pop the global (time, seq) minimum).
  void set_scheduler(SchedulerBackend backend);
  [[nodiscard]] SchedulerBackend scheduler() const noexcept {
    return backend_;
  }

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t clamped = 0;        // schedule_at(at < now()) fixups
    std::uint64_t events_inline = 0;  // closures in the 64-byte buffer
    std::uint64_t events_heap_fallback = 0;  // oversized closures
    std::uint64_t calendar_rebuilds = 0;  // bucket-array resizes
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Regression guard for the past-scheduling clamp.
  [[nodiscard]] std::uint64_t clamped_schedules() const noexcept {
    return stats_.clamped;
  }

 private:
  /// What the backends order: an event's (time, seq) and the slab slot
  /// holding its callback.  A heap sift moves these 24 bytes, never a
  /// closure.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  void push(const Key& key);
  /// Pop the global (time, seq) minimum; size_ > 0 required.
  Key pop();
  /// Pop the minimum if it is due within the window ending at `end`
  /// (see run_window); on false it stays queued.  size_ > 0 required.
  bool pop_due(SimTime end, bool inclusive, Key& out);
  /// Run the popped event: its callback leaves the slab first.
  void dispatch(const Key& key);

  // -- heap backend ------------------------------------------------------
  void heap_push(const Key& key);
  Key heap_pop();

  // -- calendar backend --------------------------------------------------
  /// A calendar entry: the key and its absolute day, cached at insert.
  struct DayKey {
    std::uint64_t day;
    Key key;
  };
  void calendar_insert(const Key& key);
  Key calendar_pop();
  void calendar_rebuild(std::size_t nbuckets);
  /// Absolute day number of time `t`.  Truncation == floor because the
  /// clock is non-negative; one multiply instead of a divide.
  [[nodiscard]] std::uint64_t day_of(SimTime t) const {
    return static_cast<std::uint64_t>(t * inv_width_);
  }
  /// Bucket count is always a power of two, so the hash is one AND.
  [[nodiscard]] std::size_t bucket_of(std::uint64_t day) const {
    return static_cast<std::size_t>(day) & mask_;
  }

  SchedulerBackend backend_ = SchedulerBackend::kHeap;
  std::size_t size_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;

  // Callback slab shared by both backends: slab_[k.slot] holds the
  // callback of the pending event with key k; free_ lists the empty
  // slots, reused last-freed first.
  std::vector<InlineEvent> slab_;
  std::vector<std::uint32_t> free_;

  // Heap storage: a min-heap of keys over (time, seq), kept with
  // std::push_heap / std::pop_heap.
  std::vector<Key> heap_;

  // Calendar storage.  Days are absolute (not wrapped) day numbers;
  // every entry caches its day at insert so the pop scan does pure
  // integer compares.  Width is applied as a cached reciprocal.
  std::vector<std::vector<DayKey>> buckets_;
  double width_ = 1e-3;      // bucket width (one day) in seconds
  double inv_width_ = 1e3;   // 1 / width_, kept in sync by rebuild
  std::size_t mask_ = 0;     // buckets_.size() - 1 (power of two)
  std::uint64_t cursor_day_ = 0;  // day currently being drained
};

}  // namespace empls::net
