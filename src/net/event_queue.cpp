#include "net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace empls::net {

namespace {

/// Heap comparator: std::push_heap keeps the comp-maximum at front, so
/// "later is greater" puts the earliest (time, seq) on top.
struct Later {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::schedule_event(SimTime at, InlineEvent fn) {
  if (at < now_) {
    // Time travel: the caller computed a deadline that already passed
    // (e.g. a zero-length timer rounded down).  Run it "immediately"
    // instead of corrupting the monotone clock, and count the fixup.
    at = now_;
    ++stats_.clamped;
  }
  ++stats_.scheduled;
  if (fn.is_inline()) {
    ++stats_.events_inline;
  } else {
    ++stats_.events_heap_fallback;
  }
  std::uint32_t slot = 0;
  if (free_.empty()) {
    assert(slab_.size() < std::numeric_limits<std::uint32_t>::max());
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
  }
  push(Key{at, next_seq_++, slot});
}

void EventQueue::push(const Key& key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Key EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
}

void EventQueue::dispatch(const Key& key) {
  // Move the callback out before running it: it may schedule events,
  // and a growing slab moves every slot.
  InlineEvent fn = std::move(slab_[key.slot]);
  free_.push_back(key.slot);
  now_ = key.time;
  fn();
}

std::uint64_t EventQueue::run_until(SimTime until) {
  return run_window(until, /*inclusive=*/true);
}

std::uint64_t EventQueue::run() {
  std::uint64_t executed = 0;
  while (!heap_.empty()) {
    dispatch(pop());
    ++executed;
  }
  stats_.executed += executed;
  return executed;
}

SimTime EventQueue::next_time() const noexcept {
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                       : heap_.front().time;
}

bool EventQueue::step() {
  if (heap_.empty()) {
    return false;
  }
  dispatch(pop());
  ++stats_.executed;
  return true;
}

std::uint64_t EventQueue::run_window(SimTime end, bool inclusive) {
  std::uint64_t executed = 0;
  while (!heap_.empty()) {
    const SimTime t = heap_.front().time;
    if (t > end || (!inclusive && t == end)) {
      break;  // not due: it stays queued
    }
    dispatch(pop());
    ++executed;
  }
  if (now_ < end) {
    now_ = end;
  }
  stats_.executed += executed;
  return executed;
}

}  // namespace empls::net
