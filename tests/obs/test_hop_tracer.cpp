// Unit tests for the hop tracer: journey table lifecycle, the
// flight-recorder ring, and the Chrome-trace serializer.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/drop_reason.hpp"
#include "obs/trace.hpp"

namespace empls::obs {
namespace {

TEST(HopTracer, DisabledIsInert) {
  HopTracer t;
  int dummy = 0;
  EXPECT_EQ(t.begin(&dummy, 1, 1, 0, 0.0), 0u);
  EXPECT_EQ(t.id_of(&dummy), 0u);
  t.record(1, SpanKind::kIngress, 0, 0.0, 0.0);
  const auto s = t.stats();
  EXPECT_EQ(s.journeys, 0u);
  EXPECT_EQ(s.records, 0u);
}

TEST(HopTracer, JourneyLifecycle) {
  HopTracer t;
  t.set_enabled(true);
  int p1 = 0;
  int p2 = 0;
  const auto id1 = t.begin(&p1, /*flow=*/7, /*seq=*/1, /*lane=*/0, 0.0);
  const auto id2 = t.begin(&p2, 7, 2, 0, 0.1);
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, 0u);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(t.id_of(&p1), id1);
  EXPECT_EQ(t.id_of(&p2), id2);
  EXPECT_EQ(t.stats().live, 2u);

  t.end(&p1);
  EXPECT_EQ(t.id_of(&p1), 0u);
  EXPECT_EQ(t.id_of(&p2), id2);
  EXPECT_EQ(t.stats().live, 1u);
  EXPECT_EQ(t.stats().live_high_water, 2u);

  // Recycled address (pool slot reuse): begin() self-heals the slot
  // and assigns a fresh id.
  const auto id3 = t.begin(&p2, 8, 3, 1, 0.2);
  EXPECT_NE(id3, id2);
  EXPECT_EQ(t.id_of(&p2), id3);
  EXPECT_EQ(t.stats().live, 1u);
}

TEST(HopTracer, MarkIsConsumedOnce) {
  HopTracer t;
  t.set_enabled(true);
  int p = 0;
  t.begin(&p, 1, 1, 0, 0.0);
  EXPECT_LT(t.take_mark(&p), 0.0);  // unset
  t.mark(&p, 1.5);
  EXPECT_DOUBLE_EQ(t.take_mark(&p), 1.5);
  EXPECT_LT(t.take_mark(&p), 0.0);  // consumed
  int q = 0;
  EXPECT_LT(t.take_mark(&q), 0.0);  // untracked packet
}

TEST(HopTracer, TableSurvivesChurn) {
  // Thousands of insert/erase cycles across overlapping batches force
  // collisions, growth, and backward-shift deletion in the open table.
  HopTracer t;
  t.set_enabled(true);
  std::vector<int> storage(4096);
  std::uint64_t expected_live = 0;
  for (int round = 0; round < 4; ++round) {
    for (auto& s : storage) {
      t.begin(&s, 1, 1, 0, 0.0);
    }
    expected_live = storage.size();
    EXPECT_EQ(t.stats().live, expected_live);
    // Erase every other entry, then verify the rest still resolve.
    for (std::size_t i = 0; i < storage.size(); i += 2) {
      t.end(&storage[i]);
      --expected_live;
    }
    EXPECT_EQ(t.stats().live, expected_live);
    std::set<std::uint64_t> ids;
    for (std::size_t i = 1; i < storage.size(); i += 2) {
      const auto id = t.id_of(&storage[i]);
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
    EXPECT_EQ(ids.size(), storage.size() / 2);  // all distinct
    for (std::size_t i = 1; i < storage.size(); i += 2) {
      t.end(&storage[i]);
    }
    expected_live = 0;
  }
  EXPECT_EQ(t.stats().journeys, 4u * 4096u);
  EXPECT_EQ(t.stats().live, 0u);
}

TEST(HopTracer, RingWrapsAndCountsOverwrites) {
  HopTracer t(/*capacity=*/8);  // rounded to 8
  t.set_enabled(true);
  EXPECT_EQ(t.capacity(), 8u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    t.record(1, SpanKind::kIngress, /*lane=*/i, /*ts=*/i, 0.0);
  }
  const auto s = t.stats();
  EXPECT_EQ(s.records, 20u);
  EXPECT_EQ(s.dropped_records, 12u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-first snapshot holds the last 8 records: lanes 12..19.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].lane, 12u + i);
  }
}

TEST(HopTracer, ChromeTraceShape) {
  HopTracer t;
  t.set_enabled(true);
  int p = 0;
  const auto id = t.begin(&p, /*flow=*/3, /*seq=*/42, /*lane=*/0, 0.0);
  t.record(id, SpanKind::kEngineSearch, 0, 1e-6, 2e-6, /*a=*/1, /*b=*/57,
           kSpanHit);
  t.record(id, SpanKind::kLinkTransit, 0, 3e-6, 4e-6, 0, /*b=*/256,
           kSpanOnLink);
  t.record(id, SpanKind::kDrop, 1, 8e-6, 0.0,
           static_cast<std::uint16_t>(DropReason::kTtlExpired));
  t.end(&p);

  std::ostringstream out;
  t.write_chrome_trace(out, {"A", "B"}, {"A->B"});
  const std::string json = out.str();
  // Container + metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"routers\""), std::string::npos);
  EXPECT_NE(json.find("\"A->B\""), std::string::npos);
  // One complete (ph:X) span per non-journey record, named by kind.
  EXPECT_NE(json.find("\"engine-search\""), std::string::npos);
  EXPECT_NE(json.find("\"link-transit\""), std::string::npos);
  EXPECT_NE(json.find("\"drop\""), std::string::npos);
  EXPECT_NE(json.find("\"ttl-expired\""), std::string::npos);
  // Durations are microseconds: the 2 us engine search.
  EXPECT_NE(json.find("\"dur\":2.0000"), std::string::npos);
  // No raw addresses leak into the serialized output.
  EXPECT_EQ(json.find("0x"), std::string::npos);
}

}  // namespace
}  // namespace empls::obs
