// Engine tests: every LabelEngine implementation agrees on behaviour
// (parameterized over engines), plus engine-specific semantics — linear
// scan order, CAM cost model, capacity limits.
#include <gtest/gtest.h>

#include <memory>

#include "hw/cycle_model.hpp"
#include "sw/cam_engine.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

namespace empls::sw {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;

// The values are what the parameterized rows print; 1 and 3 belonged to
// deleted engines.
enum class Kind { kLinear, kCam = 2, kTrie = 4, kHwRtl };

std::unique_ptr<LabelEngine> make(Kind kind, std::size_t capacity = 1024) {
  switch (kind) {
    case Kind::kLinear:
      return std::make_unique<LinearEngine>(capacity);
    case Kind::kCam:
      return std::make_unique<CamEngine>(capacity);
    case Kind::kTrie:
      return std::make_unique<TrieEngine>(capacity);
    case Kind::kHwRtl:
      return std::make_unique<HwEngine>();
  }
  return nullptr;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kLinear:
      return "Linear";
    case Kind::kCam:
      return "Cam";
    case Kind::kTrie:
      return "Trie";
    case Kind::kHwRtl:
      return "HwRtl";
  }
  return "?";
}

class EveryEngine : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<LabelEngine> engine_ = make(GetParam());
};

TEST_P(EveryEngine, LookupFindsStoredPair) {
  engine_->write_pair(2, LabelPair{40, 77, LabelOp::kSwap});
  const auto hit = engine_->lookup(2, 40);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->new_label, 77u);
  EXPECT_EQ(hit->op, LabelOp::kSwap);
  EXPECT_FALSE(engine_->lookup(2, 41).has_value());
  EXPECT_FALSE(engine_->lookup(3, 40).has_value()) << "levels are separate";
}

TEST_P(EveryEngine, SwapUpdate) {
  engine_->write_pair(2, LabelPair{40, 77, LabelOp::kSwap});
  mpls::Packet p;
  p.stack.push(LabelEntry{40, 5, false, 64});
  const auto out = engine_->update(p, 2, hw::RouterType::kLsr);
  EXPECT_FALSE(out.discarded);
  EXPECT_EQ(out.applied, LabelOp::kSwap);
  ASSERT_EQ(p.stack.size(), 1u);
  EXPECT_EQ(p.stack.top().label, 77u);
  EXPECT_EQ(p.stack.top().cos, 5u);
  EXPECT_EQ(p.stack.top().ttl, 63u);
}

TEST_P(EveryEngine, IngressPushUpdate) {
  mpls::Packet p;
  p.dst = mpls::Ipv4Address::from_octets(10, 0, 0, 1);
  p.cos = 4;
  p.ip_ttl = 32;
  engine_->write_pair(1,
                      LabelPair{p.packet_identifier(), 55, LabelOp::kPush});
  const auto out = engine_->update(p, 1, hw::RouterType::kLer);
  EXPECT_FALSE(out.discarded);
  ASSERT_EQ(p.stack.size(), 1u);
  EXPECT_EQ(p.stack.top().label, 55u);
  EXPECT_EQ(p.stack.top().cos, 4u);
  EXPECT_EQ(p.stack.top().ttl, 31u);
}

TEST_P(EveryEngine, MissDiscards) {
  mpls::Packet p;
  p.stack.push(LabelEntry{999, 0, false, 64});
  const auto out = engine_->update(p, 2, hw::RouterType::kLsr);
  EXPECT_TRUE(out.discarded);
  EXPECT_TRUE(p.stack.empty());
}

TEST_P(EveryEngine, TtlExpiryDiscards) {
  engine_->write_pair(2, LabelPair{40, 77, LabelOp::kSwap});
  mpls::Packet p;
  p.stack.push(LabelEntry{40, 0, false, 1});
  EXPECT_TRUE(engine_->update(p, 2, hw::RouterType::kLsr).discarded);
  EXPECT_TRUE(p.stack.empty());
}

TEST_P(EveryEngine, ClearForgetsEverything) {
  engine_->write_pair(2, LabelPair{40, 77, LabelOp::kSwap});
  engine_->clear();
  EXPECT_EQ(engine_->level_size(2), 0u);
  EXPECT_FALSE(engine_->lookup(2, 40).has_value());
}

INSTANTIATE_TEST_SUITE_P(Engines, EveryEngine,
                         ::testing::Values(Kind::kLinear, Kind::kCam,
                                           Kind::kTrie, Kind::kHwRtl),
                         [](const auto& info) {
                           return kind_name(info.param);
                         });

// ---- engine-specific behaviour ----

TEST(LinearEngine, CapacityEnforced) {
  LinearEngine e(4);
  for (rtl::u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(e.write_pair(2, LabelPair{i + 1, i, LabelOp::kSwap}));
  }
  EXPECT_FALSE(e.write_pair(2, LabelPair{99, 0, LabelOp::kSwap}));
  EXPECT_EQ(e.level_size(2), 4u);
}

TEST(LinearEngine, ReportsEntriesExamined) {
  LinearEngine e;
  for (rtl::u32 i = 1; i <= 10; ++i) {
    e.write_pair(2, LabelPair{i, 100 + i, LabelOp::kSwap});
  }
  EXPECT_TRUE(e.lookup(2, 7).has_value());
  EXPECT_EQ(e.last_entries_examined(), 7u);
  EXPECT_FALSE(e.lookup(2, 999).has_value());
  EXPECT_EQ(e.last_entries_examined(), 10u) << "miss scans everything";
}

TEST(LinearEngine, ModeledCyclesMatchTable6) {
  LinearEngine e;
  for (rtl::u32 i = 1; i <= 10; ++i) {
    e.write_pair(2, LabelPair{i, 100 + i, LabelOp::kSwap});
  }
  mpls::Packet p;
  p.stack.push(LabelEntry{7, 0, false, 64});
  const auto out = e.update(p, 2, hw::RouterType::kLsr);
  EXPECT_EQ(out.hw_cycles, hw::update_swap_cycles(7));
}

TEST(CamEngine, ConstantSearchCost) {
  CamEngine e;
  for (rtl::u32 i = 1; i <= 100; ++i) {
    e.write_pair(2, LabelPair{i, 100 + i, LabelOp::kSwap});
  }
  mpls::Packet p1;
  p1.stack.push(LabelEntry{1, 0, false, 64});
  mpls::Packet p2;
  p2.stack.push(LabelEntry{100, 0, false, 64});
  const auto first = e.update(p1, 2, hw::RouterType::kLsr);
  const auto last = e.update(p2, 2, hw::RouterType::kLsr);
  EXPECT_EQ(first.hw_cycles, last.hw_cycles)
      << "CAM cost is independent of hit position";
  EXPECT_EQ(first.hw_cycles, kCamSearchCycles + hw::kSwapTailCycles);
}

TEST(HwEngine, CyclesIncludeStackTransfers) {
  HwEngine e;
  e.write_pair(3, LabelPair{20, 99, LabelOp::kSwap});
  mpls::Packet p;
  p.stack.push(LabelEntry{10, 0, false, 64});
  p.stack.push(LabelEntry{20, 0, false, 64});
  const auto out = e.update(p, 3, hw::RouterType::kLsr);
  EXPECT_FALSE(out.discarded);
  // 2 loads + update + 2 drains.
  EXPECT_EQ(out.hw_cycles,
            2 * 3 + hw::update_swap_cycles(1) + 2 * 3);
  EXPECT_EQ(e.last_update_only_cycles(), hw::update_swap_cycles(1));
}

}  // namespace
}  // namespace empls::sw
