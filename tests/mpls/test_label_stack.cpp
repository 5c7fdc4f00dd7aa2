// Unit + property tests for the label stack: capacity, S-bit invariant,
// wire serialisation.
#include <gtest/gtest.h>

#include <random>

#include "mpls/label_stack.hpp"

namespace empls::mpls {
namespace {

LabelEntry e(std::uint32_t label, std::uint8_t ttl = 64) {
  return LabelEntry{label, 0, false, ttl};
}

TEST(LabelStack, StartsEmpty) {
  LabelStack s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.capacity(), LabelStack::kHardwareDepth);
  EXPECT_FALSE(s.pop().has_value());
}

TEST(LabelStack, PushPopLifo) {
  LabelStack s;
  ASSERT_TRUE(s.push(e(1)));
  ASSERT_TRUE(s.push(e(2)));
  ASSERT_TRUE(s.push(e(3)));
  EXPECT_EQ(s.top().label, 3u);
  EXPECT_EQ(s.pop()->label, 3u);
  EXPECT_EQ(s.pop()->label, 2u);
  EXPECT_EQ(s.pop()->label, 1u);
  EXPECT_TRUE(s.empty());
}

TEST(LabelStack, CapacityIsEnforced) {
  LabelStack s;
  EXPECT_TRUE(s.push(e(1)));
  EXPECT_TRUE(s.push(e(2)));
  EXPECT_TRUE(s.push(e(3)));
  EXPECT_TRUE(s.full());
  EXPECT_FALSE(s.push(e(4))) << "the paper's hardware holds three entries";
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.top().label, 3u);
}

TEST(LabelStack, SBitMaintainedByPush) {
  LabelStack s;
  // Push entries with deliberately wrong S bits; push() must fix them.
  s.push(LabelEntry{1, 0, false, 64});
  s.push(LabelEntry{2, 0, true, 64});
  EXPECT_TRUE(s.s_bit_invariant_holds());
  EXPECT_TRUE(s.at(1).bottom);   // deepest
  EXPECT_FALSE(s.at(0).bottom);  // top
}

TEST(LabelStack, AtIndexesFromTop) {
  LabelStack s;
  s.push(e(10));
  s.push(e(20));
  s.push(e(30));
  EXPECT_EQ(s.at(0).label, 30u);
  EXPECT_EQ(s.at(1).label, 20u);
  EXPECT_EQ(s.at(2).label, 10u);
}

TEST(LabelStack, RewriteTop) {
  LabelStack s;
  EXPECT_FALSE(s.rewrite_top(9, 9)) << "empty stack";
  s.push(LabelEntry{10, 5, false, 64});
  ASSERT_TRUE(s.rewrite_top(77, 63));
  EXPECT_EQ(s.top().label, 77u);
  EXPECT_EQ(s.top().ttl, 63u);
  EXPECT_EQ(s.top().cos, 5u) << "CoS untouched by rewrite";
  EXPECT_TRUE(s.top().bottom) << "S bit untouched by rewrite";
}

TEST(LabelStack, ClearModelsDiscard) {
  LabelStack s;
  s.push(e(1));
  s.push(e(2));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.s_bit_invariant_holds());
}

TEST(LabelStack, SerializeTopFirst) {
  LabelStack s;
  s.push(LabelEntry{1, 0, false, 10});  // bottom
  s.push(LabelEntry{2, 0, false, 20});  // top
  const auto bytes = s.serialize();
  ASSERT_EQ(bytes.size(), 8u);
  // First word on the wire is the TOP entry (label 2, S=0).
  const std::uint32_t first = (bytes[0] << 24) | (bytes[1] << 16) |
                              (bytes[2] << 8) | bytes[3];
  EXPECT_EQ(decode(first).label, 2u);
  EXPECT_FALSE(decode(first).bottom);
  const std::uint32_t second = (bytes[4] << 24) | (bytes[5] << 16) |
                               (bytes[6] << 8) | bytes[7];
  EXPECT_EQ(decode(second).label, 1u);
  EXPECT_TRUE(decode(second).bottom);
}

TEST(LabelStack, ParseRejectsMalformedInput) {
  // Truncated: 3 bytes.
  EXPECT_FALSE(LabelStack::parse(std::vector<std::uint8_t>{1, 2, 3}));
  // No S bit anywhere: runs off the end.
  LabelStack s;
  s.push(e(1));
  auto bytes = s.serialize();
  bytes[2] &= static_cast<std::uint8_t>(~1u);  // clear the S bit
  EXPECT_FALSE(LabelStack::parse(bytes));
  // Deeper than capacity.
  LabelStack deep(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    deep.push(e(i));
  }
  EXPECT_FALSE(LabelStack::parse(deep.serialize(), /*capacity=*/3));
  EXPECT_TRUE(LabelStack::parse(deep.serialize(), /*capacity=*/5));
  // One entry past capacity, and that entry carries the S bit.
  LabelStack four(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    four.push(e(i));
  }
  EXPECT_FALSE(LabelStack::parse(four.serialize(), /*capacity=*/3));
  LabelStack reused;
  EXPECT_FALSE(LabelStack::parse_into(four.serialize(), reused, 3));
}

TEST(LabelStack, EmptySerializesToNothing) {
  LabelStack s;
  EXPECT_TRUE(s.serialize().empty());
  EXPECT_EQ(s.wire_size(), 0u);
}

// Property: any sequence of pushes/pops keeps the S-bit invariant, and
// serialize/parse is the identity on non-empty stacks.
class StackProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(StackProperty, RandomOpSequencesKeepInvariants) {
  std::mt19937 rng(GetParam());
  LabelStack s;
  for (int step = 0; step < 2000; ++step) {
    const auto action = rng() % 4;
    if (action <= 1) {
      s.push(LabelEntry{static_cast<std::uint32_t>(rng() & kMaxLabel),
                        static_cast<std::uint8_t>(rng() & 7), (rng() & 1) != 0,
                        static_cast<std::uint8_t>(rng() & 0xFF)});
    } else if (action == 2) {
      s.pop();
    } else if (!s.empty()) {
      s.rewrite_top(rng() & kMaxLabel, static_cast<std::uint8_t>(rng()));
    }
    ASSERT_TRUE(s.s_bit_invariant_holds()) << "after step " << step;
    ASSERT_LE(s.size(), s.capacity());
    if (!s.empty()) {
      const auto parsed = LabelStack::parse(s.serialize());
      ASSERT_TRUE(parsed.has_value());
      ASSERT_EQ(*parsed, s) << "wire round trip after step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace empls::mpls
