// Unit tests for the discrete-event scheduler: ordering, determinism,
// bounded runs — run against both backends (heap and calendar), which
// must be observationally identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "net/event_queue.hpp"

namespace empls::net {
namespace {

class EventQueueBackends
    : public ::testing::TestWithParam<SchedulerBackend> {
 protected:
  EventQueue make() {
    EventQueue q;
    q.set_scheduler(GetParam());
    return q;
  }
};

TEST_P(EventQueueBackends, RunsInTimeOrder) {
  EventQueue q = make();
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST_P(EventQueueBackends, TiesRunInSchedulingOrder) {
  EventQueue q = make();
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(EventQueueBackends, CallbacksMayScheduleMore) {
  EventQueue q = make();
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
TEST_P(EventQueueBackends, CallbackGrowingTheSlabKeepsItsCaptures) {
  EventQueue q = make();
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

TEST_P(EventQueueBackends, RunUntilLeavesLaterEventsQueued) {
  EventQueue q = make();
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

TEST_P(EventQueueBackends, ScheduleInIsRelative) {
  EventQueue q = make();
  double seen = -1;
  q.schedule_at(2.0, [&] { q.schedule_in(1.5, [&] { seen = q.now(); }); });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST_P(EventQueueBackends, EmptyQueueRunIsNoop) {
  EventQueue q = make();
  EXPECT_EQ(q.run(), 0u);
  EXPECT_TRUE(q.empty());
}

// Regression: schedule_at used to accept a time in the past silently,
// executing the event "before" already-executed ones and stepping the
// clock backwards.  It must clamp to now() and count the fixup.
TEST_P(EventQueueBackends, PastScheduleClampsToNow) {
  EventQueue q = make();
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

TEST_P(EventQueueBackends, ClampedEventRunsAfterSameTimeEvents) {
  EventQueue q = make();
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

TEST_P(EventQueueBackends, MoveOnlyCallablesAreSupported) {
  // std::function required copyability; InlineEvent must not.
  EventQueue q = make();
  auto token = std::make_unique<int>(42);
  int seen = 0;
  q.schedule_at(1.0, [t = std::move(token), &seen] { seen = *t; });
  q.run();
  EXPECT_EQ(seen, 42);
}

TEST_P(EventQueueBackends, SparseAndClusteredTimesBothOrder) {
  // Mixes dense clusters with decade-apart gaps: exercises the calendar
  // backend's cursor rotation and direct-search fallback.
  EventQueue q = make();
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

INSTANTIATE_TEST_SUITE_P(
    Backends, EventQueueBackends,
    ::testing::Values(SchedulerBackend::kHeap, SchedulerBackend::kCalendar),
    [](const auto& info) {
      return info.param == SchedulerBackend::kHeap ? "Heap" : "Calendar";
    });

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

TEST(EventQueue, SwitchingBackendMidRunPreservesOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(1.0 + i * 0.25, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.6);  // runs 0, 1, 2
  q.set_scheduler(SchedulerBackend::kCalendar);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// Golden-trace equivalence: a randomized workload (including events that
// schedule further events) must execute in the exact same order on both
// backends.
TEST(EventQueue, RandomizedTraceIsBackendIdentical) {
  auto trace_with = [](SchedulerBackend backend) {
    EventQueue q;
    q.set_scheduler(backend);
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
  };
  const auto heap = trace_with(SchedulerBackend::kHeap);
  const auto calendar = trace_with(SchedulerBackend::kCalendar);
  ASSERT_EQ(heap.size(), calendar.size());
  EXPECT_EQ(heap, calendar);
}

}  // namespace
}  // namespace empls::net
