#include "net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace empls::net {

namespace {

// Calendar sizing: Brown's rule of thumb — keep roughly one pending
// event per bucket, resize by doubling/halving outside [1/8, 2] load.
constexpr std::size_t kMinBuckets = 16;
// Floor for the bucket width: protects day numbers from blowing past
// the 2^53 integer-exact range when every pending event shares one
// timestamp (width would otherwise collapse to zero).
constexpr double kMinWidth = 1e-12;

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
  if (backend_ == SchedulerBackend::kHeap) {
    heap_push(key);
  } else {
    calendar_insert(key);
  }
  ++size_;
}

EventQueue::Key EventQueue::pop() {
  assert(size_ > 0);
  --size_;
  if (backend_ == SchedulerBackend::kHeap) {
    return heap_pop();
  }
  return calendar_pop();
}

bool EventQueue::pop_due(SimTime end, bool inclusive, Key& out) {
  auto beyond = [end, inclusive](SimTime t) {
    return t > end || (!inclusive && t == end);
  };
  if (backend_ == SchedulerBackend::kHeap) {
    if (beyond(heap_.front().time)) {
      return false;
    }
    out = pop();
    return true;
  }
  // The calendar peeks by popping: an event that is not due goes back
  // with its sequence number, so order is unchanged.
  out = pop();
  if (beyond(out.time)) {
    push(out);
    return false;
  }
  return true;
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
  while (size_ > 0) {
    dispatch(pop());
    ++executed;
  }
  stats_.executed += executed;
  return executed;
}

SimTime EventQueue::next_time() {
  if (size_ == 0) {
    return std::numeric_limits<SimTime>::infinity();
  }
  if (backend_ == SchedulerBackend::kHeap) {
    return heap_.front().time;
  }
  // Calendar: pop the minimum and re-push it.  The event keeps its
  // sequence number so execution order is unchanged; the cursor pull-back
  // in calendar_insert restores the scan position.
  const Key key = pop();
  push(key);
  return key.time;
}

bool EventQueue::step() {
  if (size_ == 0) {
    return false;
  }
  dispatch(pop());
  ++stats_.executed;
  return true;
}

std::uint64_t EventQueue::run_window(SimTime end, bool inclusive) {
  std::uint64_t executed = 0;
  Key key{};
  while (size_ > 0 && pop_due(end, inclusive, key)) {
    dispatch(key);
    ++executed;
  }
  if (now_ < end) {
    now_ = end;
  }
  stats_.executed += executed;
  return executed;
}

void EventQueue::set_scheduler(SchedulerBackend backend) {
  if (backend == backend_) {
    return;
  }
  // Drain the old structure, switch, re-push.  Callbacks stay in their
  // slots and sequence numbers ride along, so execution order is
  // unchanged.
  std::vector<Key> pending;
  pending.reserve(size_);
  if (backend_ == SchedulerBackend::kHeap) {
    pending = std::move(heap_);
    heap_.clear();
  } else {
    for (auto& bucket : buckets_) {
      for (const DayKey& entry : bucket) {
        pending.push_back(entry.key);
      }
      bucket.clear();
    }
  }
  backend_ = backend;
  size_ = 0;
  for (const Key& key : pending) {
    push(key);
  }
}

// ---------------------------------------------------------------------
// Heap backend.

void EventQueue::heap_push(const Key& key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Key EventQueue::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
}

// ---------------------------------------------------------------------
// Calendar backend.
//
// An event's day is trunc(time * 1/width) — exact for the non-negative
// clock — cached in its entry at insert, and it lives in bucket
// (day & mask).  The cursor walks days in order; within the cursor's
// day the (time, seq) minimum is popped, which is the global minimum
// because all earlier days have been drained and later days only hold
// later times.  The hot paths are branchy integer code on purpose: no
// divides, no fmod, no floor.

void EventQueue::calendar_insert(const Key& key) {
  if (buckets_.empty()) {
    calendar_rebuild(kMinBuckets);
  } else if (size_ + 1 > 2 * buckets_.size()) {
    calendar_rebuild(2 * buckets_.size());
  }
  const std::uint64_t day = day_of(key.time);
  // An event may land behind the cursor: run_until() can advance now()
  // past days the cursor already drained, and the next schedule lands
  // in one of them.  Pull the cursor back so the scan can't pop a later
  // event first.
  if (day < cursor_day_ || size_ == 0) {
    cursor_day_ = day;
  }
  buckets_[bucket_of(day)].push_back(DayKey{day, key});
}

EventQueue::Key EventQueue::calendar_pop() {
  // size_ was already decremented by pop(); the true count is size_ + 1.
  if (buckets_.size() > kMinBuckets && (size_ + 1) * 8 < buckets_.size()) {
    calendar_rebuild(buckets_.size() / 2);
  }
  const std::size_t n = buckets_.size();
  auto better = [](const DayKey& a, const DayKey& b) {
    return a.key.time < b.key.time ||
           (a.key.time == b.key.time && a.key.seq < b.key.seq);
  };
  auto take = [](std::vector<DayKey>& bucket, std::size_t i) {
    const Key key = bucket[i].key;
    bucket[i] = bucket.back();  // intra-bucket order is free
    bucket.pop_back();
    return key;
  };

  std::uint64_t scan = cursor_day_;
  std::size_t b = bucket_of(scan);
  for (std::size_t visited = 0; visited <= n;
       ++visited, ++scan, b = (b + 1) & mask_) {
    auto& bucket = buckets_[b];
    std::size_t best = bucket.size();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].day != scan) {
        continue;  // a later year sharing this bucket
      }
      if (best == bucket.size() || better(bucket[i], bucket[best])) {
        best = i;
      }
    }
    if (best != bucket.size()) {
      cursor_day_ = scan;
      return take(bucket, best);
    }
  }

  // A full rotation found nothing: every pending event is at least one
  // rotation ahead of the cursor (a sparse stretch).  Direct-search the
  // global minimum and jump the cursor to it.
  std::size_t best_bucket = n;
  std::size_t best_index = 0;
  for (std::size_t bkt = 0; bkt < n; ++bkt) {
    for (std::size_t i = 0; i < buckets_[bkt].size(); ++i) {
      if (best_bucket == n ||
          better(buckets_[bkt][i], buckets_[best_bucket][best_index])) {
        best_bucket = bkt;
        best_index = i;
      }
    }
  }
  assert(best_bucket != n && "pop on an empty calendar");
  cursor_day_ = buckets_[best_bucket][best_index].day;
  return take(buckets_[best_bucket], best_index);
}

void EventQueue::calendar_rebuild(std::size_t nbuckets) {
  ++stats_.calendar_rebuilds;
  std::vector<DayKey> pending;
  pending.reserve(size_);
  for (const auto& bucket : buckets_) {
    pending.insert(pending.end(), bucket.begin(), bucket.end());
  }
  buckets_.clear();
  buckets_.resize(std::max(nbuckets, kMinBuckets));  // stays a power of 2
  mask_ = buckets_.size() - 1;

  // Re-estimate the width so the pending population spreads to about
  // one event per bucket.  The estimate is the *median* non-zero
  // inter-event gap, not span/count: a handful of far-future outliers
  // (pre-scheduled telemetry sample ticks, a link failure armed minutes
  // ahead) would stretch a span-based width by orders of magnitude
  // until the dense population collapsed into a single day and every
  // pop degenerated into a linear scan.  The median ignores them.  An
  // empty or single-time population keeps the current width.
  if (pending.size() >= 2) {
    std::vector<double> times;
    times.reserve(pending.size());
    for (const DayKey& entry : pending) {
      times.push_back(entry.key.time);
    }
    std::sort(times.begin(), times.end());
    std::vector<double> gaps;
    gaps.reserve(times.size() - 1);
    for (std::size_t i = 1; i < times.size(); ++i) {
      const double gap = times[i] - times[i - 1];
      if (gap > 0.0) {
        gaps.push_back(gap);
      }
    }
    if (!gaps.empty()) {
      const auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
      std::nth_element(gaps.begin(), mid, gaps.end());
      width_ = std::max(*mid, kMinWidth);
      inv_width_ = 1.0 / width_;
    }
  }

  cursor_day_ = day_of(now_);
  for (DayKey& entry : pending) {
    entry.day = day_of(entry.key.time);  // days shift with the new width
    cursor_day_ = std::min(cursor_day_, entry.day);
  }
  for (const DayKey& entry : pending) {
    buckets_[bucket_of(entry.day)].push_back(entry);
  }
}

}  // namespace empls::net
