// Direct unit tests for the shared Figure 9 semantics: key selection,
// every verify branch's discard reason, and field handling — the
// contract every engine (and the RTL) is held to.
#include <gtest/gtest.h>

#include <array>
#include <string_view>

#include "obs/drop_reason.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {
namespace {

using hw::RouterType;
using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;

mpls::Packet unlabeled(rtl::u8 ttl = 64) {
  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.0.0.9");
  p.cos = 4;
  p.ip_ttl = ttl;
  return p;
}

mpls::Packet labeled(rtl::u32 label, rtl::u8 ttl = 64, rtl::u8 cos = 2) {
  mpls::Packet p = unlabeled();
  p.stack.push(LabelEntry{label, cos, false, ttl});
  return p;
}

TEST(UpdateKey, EmptyStackUsesLevel1AndPid) {
  const auto p = unlabeled();
  const auto k = update_key(p, 3);
  EXPECT_EQ(k.level, 1u);
  EXPECT_EQ(k.key, p.packet_identifier());
}

TEST(UpdateKey, LabeledUsesCallerLevelAndTopLabel) {
  const auto p = labeled(777);
  const auto k = update_key(p, 2);
  EXPECT_EQ(k.level, 2u);
  EXPECT_EQ(k.key, 777u);
}

TEST(ApplyUpdate, MissReason) {
  auto p = labeled(40);
  const auto out = apply_update(p, std::nullopt, RouterType::kLsr);
  EXPECT_TRUE(out.discarded);
  EXPECT_EQ(out.reason, DiscardReason::kMiss);
  EXPECT_TRUE(p.stack.empty()) << "discard resets the stack";
}

TEST(ApplyUpdate, TtlReasons) {
  auto p1 = labeled(40, /*ttl=*/1);
  const auto o1 = apply_update(p1, LabelPair{40, 77, LabelOp::kSwap},
                               RouterType::kLsr);
  EXPECT_EQ(o1.reason, DiscardReason::kTtlExpired);

  auto p0 = labeled(40, /*ttl=*/0);
  const auto o0 = apply_update(p0, LabelPair{40, 77, LabelOp::kSwap},
                               RouterType::kLsr);
  EXPECT_EQ(o0.reason, DiscardReason::kTtlExpired)
      << "a zero TTL must not wrap to 255 lives";
}

TEST(ApplyUpdate, InconsistentReasons) {
  // NOP stored.
  auto p = labeled(40);
  EXPECT_EQ(apply_update(p, LabelPair{40, 0, LabelOp::kNop},
                         RouterType::kLsr)
                .reason,
            DiscardReason::kInconsistent);
  // Swap on empty.
  auto e = unlabeled();
  EXPECT_EQ(apply_update(e, LabelPair{0, 77, LabelOp::kSwap},
                         RouterType::kLer)
                .reason,
            DiscardReason::kInconsistent);
  // LSR with empty stack.
  auto l = unlabeled();
  EXPECT_EQ(apply_update(l, LabelPair{0, 77, LabelOp::kPush},
                         RouterType::kLsr)
                .reason,
            DiscardReason::kInconsistent);
  // Push overflow.
  auto full = labeled(10);
  full.stack.push(LabelEntry{20, 0, false, 64});
  full.stack.push(LabelEntry{30, 0, false, 64});
  EXPECT_EQ(apply_update(full, LabelPair{30, 77, LabelOp::kPush},
                         RouterType::kLsr)
                .reason,
            DiscardReason::kInconsistent);
}

TEST(ApplyUpdate, SwapKeepsCosAndSBit) {
  auto p = labeled(40, 64, /*cos=*/6);
  const auto out = apply_update(p, LabelPair{40, 77, LabelOp::kSwap},
                                RouterType::kLsr);
  EXPECT_FALSE(out.discarded);
  EXPECT_EQ(out.reason, DiscardReason::kNone);
  EXPECT_EQ(p.stack.top().label, 77u);
  EXPECT_EQ(p.stack.top().cos, 6u);
  EXPECT_EQ(p.stack.top().ttl, 63u);
  EXPECT_TRUE(p.stack.top().bottom);
  EXPECT_EQ(out.ttl_after, 63u);
}

TEST(ApplyUpdate, PopExposesLowerEntryWithNewTtl) {
  auto p = labeled(10, 50, 1);
  p.stack.push(LabelEntry{20, 3, false, 90});
  const auto out = apply_update(p, LabelPair{20, 0, LabelOp::kPop},
                                RouterType::kLsr);
  EXPECT_FALSE(out.discarded);
  ASSERT_EQ(p.stack.size(), 1u);
  EXPECT_EQ(p.stack.top().label, 10u);
  EXPECT_EQ(p.stack.top().ttl, 89u);
  EXPECT_EQ(p.stack.top().cos, 1u);
}

TEST(ApplyUpdate, IngressPushUsesPacketClassAndIpTtl) {
  auto p = unlabeled(/*ttl=*/32);
  const auto out = apply_update(p, LabelPair{0, 55, LabelOp::kPush},
                                RouterType::kLer);
  EXPECT_FALSE(out.discarded);
  ASSERT_EQ(p.stack.size(), 1u);
  EXPECT_EQ(p.stack.top().label, 55u);
  EXPECT_EQ(p.stack.top().cos, p.cos);
  EXPECT_EQ(p.stack.top().ttl, 31u);
}

TEST(ApplyUpdate, NestedPushDuplicatesTtlAndCos) {
  auto p = labeled(40, 80, 5);
  const auto out = apply_update(p, LabelPair{40, 99, LabelOp::kPush},
                                RouterType::kLsr);
  EXPECT_FALSE(out.discarded);
  ASSERT_EQ(p.stack.size(), 2u);
  EXPECT_EQ(p.stack.at(0).label, 99u);
  EXPECT_EQ(p.stack.at(1).label, 40u) << "inner label re-pushed unchanged";
  EXPECT_EQ(p.stack.at(0).ttl, 79u);
  EXPECT_EQ(p.stack.at(1).ttl, 79u);
  EXPECT_EQ(p.stack.at(0).cos, 5u);
  EXPECT_TRUE(p.stack.s_bit_invariant_holds());
}

TEST(DiscardReasonNames, AreStable) {
  // OAM probe results, the scenario report, the empls_drops_total labels
  // and the bench ledger's keys all print these names; renaming one is a
  // breaking change.
  const std::array<std::string_view, obs::kDropReasonCount> names = {
      "no-label-binding", "ttl-expired",    "inconsistent-operation",
      "no-next-hop",      "malformed",      "policer",
      "engine-overrun",   "queue-full",     "link-down",
      "reserved-label",   "spoofed-label",  "ttl-rate-limited",
      "reprogram-rate-limited", "overload-shed", "other"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(obs::to_string(static_cast<obs::DropReason>(i)), names[i])
        << i;
  }
}

}  // namespace
}  // namespace empls::sw
