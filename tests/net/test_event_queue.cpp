// Unit tests for the discrete-event scheduler: ordering, determinism,
// bounded runs, and a randomized trace checked against a reference
// scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "net/event_queue.hpp"

namespace empls::net {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesRunInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) {
      q.schedule_in(0.5, chain);
    }
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(q.now(), 4.5);
}

// Callbacks wait in a slab that grows by reallocation.  This one
// schedules enough events to move the slab several times while it runs,
// then reads its own captures: a queue that ran callbacks in place in
// the slab would read freed memory here (ASan reports it).
TEST(EventQueue, CallbackGrowingTheSlabKeepsItsCaptures) {
  EventQueue q;
  int seen = 0;
  int children = 0;
  q.schedule_at(1.0, [&q, &seen, &children, token = std::make_unique<int>(7),
                      tag = std::vector<int>{1, 2, 3}] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_in(1.0 + i, [&children] { ++children; });
    }
    seen = *token + tag[2];
  });
  EXPECT_EQ(q.run(), 1001u);
  EXPECT_EQ(seen, 10);
  EXPECT_EQ(children, 1000);
}

TEST(EventQueue, RunUntilLeavesLaterEventsQueued) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 2.0) << "time advances to the horizon";
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double seen = -1;
  q.schedule_at(2.0, [&] { q.schedule_in(1.5, [&] { seen = q.now(); }); });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(EventQueue, EmptyQueueRunIsNoop) {
  EventQueue q;
  EXPECT_EQ(q.run(), 0u);
  EXPECT_TRUE(q.empty());
}

// Regression: schedule_at used to accept a time in the past silently,
// executing the event "before" already-executed ones and stepping the
// clock backwards.  It must clamp to now() and count the fixup.
TEST(EventQueue, PastScheduleClampsToNow) {
  EventQueue q;
  double ran_at = -1.0;
  q.schedule_at(2.0, [&] {
    q.schedule_at(1.0, [&] { ran_at = q.now(); });  // 1.0 < now()=2.0
  });
  q.run();
  EXPECT_DOUBLE_EQ(ran_at, 2.0) << "clamped to now(), not run in the past";
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.clamped_schedules(), 1u);
  EXPECT_EQ(q.stats().clamped, 1u);
}

TEST(EventQueue, ClampedEventRunsAfterSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] {
    order.push_back(0);
    q.schedule_at(0.5, [&] { order.push_back(2); });  // clamps to 2.0
  });
  q.schedule_at(2.0, [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "a clamped event keeps its (later) sequence number";
}

TEST(EventQueue, MoveOnlyCallablesAreSupported) {
  // std::function required copyability; InlineEvent must not.
  EventQueue q;
  auto token = std::make_unique<int>(42);
  int seen = 0;
  q.schedule_at(1.0, [t = std::move(token), &seen] { seen = *t; });
  q.run();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, SparseAndClusteredTimesBothOrder) {
  // Mixes dense clusters with decade-apart gaps.
  EventQueue q;
  std::vector<double> times;
  for (double base : {0.0, 1e-6, 1.0, 1e3, 1e6}) {
    for (int i = 0; i < 20; ++i) {
      times.push_back(base + i * 1e-7);
    }
  }
  std::mt19937 rng(7);
  std::shuffle(times.begin(), times.end(), rng);
  std::vector<double> ran;
  for (const double t : times) {
    q.schedule_at(t, [&ran, &q] { ran.push_back(q.now()); });
  }
  q.run();
  ASSERT_EQ(ran.size(), times.size());
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

TEST(EventQueue, InlineAndHeapFallbackAreCounted) {
  EventQueue q;
  q.schedule_at(1.0, [] {});  // captureless: inline
  struct Big {
    char bytes[128];
  };
  Big big{};
  q.schedule_at(2.0, [big] { (void)big; });  // 128 B > 64 B buffer
  q.run();
  EXPECT_EQ(q.stats().events_inline, 1u);
  EXPECT_EQ(q.stats().events_heap_fallback, 1u);
  EXPECT_EQ(q.stats().scheduled, 2u);
  EXPECT_EQ(q.stats().executed, 2u);
}

/// Reference scheduler for the randomized trace below: pending events
/// in a plain vector, each dispatch scanning for the (time, seq)
/// minimum, with the same past-time clamp as EventQueue.
class ReferenceQueue {
 public:
  void schedule_at(double at, std::function<void()> fn) {
    events_.push_back({std::max(at, now_), next_seq_++, std::move(fn)});
  }
  void schedule_in(double delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  [[nodiscard]] double now() const { return now_; }
  void run() {
    while (!events_.empty()) {
      const auto first = std::min_element(
          events_.begin(), events_.end(), [](const Event& a, const Event& b) {
            return a.time != b.time ? a.time < b.time : a.seq < b.seq;
          });
      Event ev = std::move(*first);
      events_.erase(first);
      now_ = ev.time;
      ev.fn();
    }
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<Event> events_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// A seeded workload: 1000 roots at random times, and callbacks that
/// schedule children (a quarter of the events have one).  Returns the
/// (time, id) order the events ran in.
template <typename Queue>
std::vector<std::pair<double, int>> randomized_trace() {
  Queue q;
  std::vector<std::pair<double, int>> trace;
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> when(0.0, 10.0);
  std::uniform_int_distribution<int> coin(0, 3);
  int next_id = 0;
  std::function<void(int)> fire = [&](int id) {
    trace.emplace_back(q.now(), id);
    if (coin(rng) == 0 && next_id < 4000) {
      const int child = next_id++;
      q.schedule_in(when(rng) * 0.1, [&fire, child] { fire(child); });
    }
  };
  for (int i = 0; i < 1000; ++i) {
    const int id = next_id++;
    q.schedule_at(when(rng), [&fire, id] { fire(id); });
  }
  q.run();
  return trace;
}

TEST(EventQueue, RandomizedTraceMatchesReferenceScheduler) {
  const auto heap = randomized_trace<EventQueue>();
  const auto reference = randomized_trace<ReferenceQueue>();
  ASSERT_GT(heap.size(), 1000u) << "callbacks scheduled children";
  ASSERT_EQ(heap.size(), reference.size());
  EXPECT_EQ(heap, reference);
}

}  // namespace
}  // namespace empls::net
