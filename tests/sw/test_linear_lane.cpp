// LinearEngine's key lane beyond the shared EveryEngine behaviour suite.
// Every case checks the lane scan against a test-owned scalar
// first-match loop: the block kernels (the selected one and the portable
// one) against a plain loop over the lane, and the engine against
// AosLinearEngine, the array-of-structures scan it replaced — at every
// hit position around the 16-key block boundaries, for pad lanes, first
// match inside a block, raw-index preservation under key masking, the
// Table 6 cycle model, epoch bookkeeping and batch/sequential agreement.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "aos_oracle.hpp"
#include "hw/cycle_model.hpp"
#include "sw/linear_engine.hpp"

namespace empls::sw {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;
using oracle::AosLinearEngine;

mpls::Packet labelled(rtl::u32 label) {
  mpls::Packet p;
  p.stack.push(LabelEntry{label, 0, false, 64});
  return p;
}

rtl::u32 mask_of(unsigned level) {
  return level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
}

/// The scalar first-match loop over a padded lane, pad lanes included.
std::size_t scalar_first_match(const std::vector<rtl::u32>& lane,
                               rtl::u32 key) {
  for (std::size_t i = 0; i < lane.size(); ++i) {
    if (lane[i] == key) {
      return i;
    }
  }
  return lane.size();
}

TEST(LinearLane, KernelIsKnown) {
  const std::string_view k = LinearEngine::kernel();
  EXPECT_TRUE(k == "sse2" || k == "neon" || k == "portable") << k;
}

// Both kernels against the scalar loop, at every occupancy 1..70 (so
// across four block boundaries) and every hit position 0..70, at the
// three levels' key masks.  Stored indices carry bits above the 20
// label bits, which levels 2/3 mask off and level 1 compares.  Key 0
// matches only the zero pad lanes, which the engine counts as a miss;
// a duplicate of the first key later in the lane must not win.
TEST(LinearLane, KernelsMatchTheScalarLoopAtEveryPosition) {
  const auto kernels = {&LinearEngine::scan, &LinearEngine::scan_portable};
  for (unsigned level = 1; level <= 3; ++level) {
    const rtl::u32 mask = mask_of(level);
    for (std::size_t n = 1; n <= 70; ++n) {
      std::vector<rtl::u32> raw(n);
      for (std::size_t i = 0; i < n; ++i) {
        raw[i] = static_cast<rtl::u32>((i % 5) << 24 | (16 + i));
      }
      for (const bool duplicate : {false, true}) {
        if (duplicate && n > 1) {
          raw[n - 1] = raw[0];
        }
        std::vector<rtl::u32> lane(
            (n + LinearEngine::kLaneWidth - 1) / LinearEngine::kLaneWidth *
                LinearEngine::kLaneWidth,
            0);
        for (std::size_t i = 0; i < n; ++i) {
          lane[i] = raw[i] & mask;
        }
        std::vector<rtl::u32> queries{0, 0xFFF00000u};
        for (std::size_t p = 0; p <= 70; ++p) {
          queries.push_back(p < n ? raw[p] : 0x07000000u | (16 + p));
        }
        for (const rtl::u32 q : queries) {
          const std::size_t want = scalar_first_match(lane, q & mask);
          for (const auto kernel : kernels) {
            EXPECT_EQ(kernel(lane, q & mask), want)
                << "level " << level << " occupancy " << n << " key " << q
                << (kernel == &LinearEngine::scan ? " selected"
                                                  : " portable");
          }
        }
      }
    }
  }
}

// The same sweep through the engine: LinearEngine and the AoS oracle
// report the same hit, the same pair as written and the same 1-based
// position (the k of 3k+5) for every stored key, for misses and for
// key 0, at every level.
TEST(LinearLane, EngineMatchesTheAosScanAtEveryPosition) {
  for (unsigned level = 1; level <= 3; ++level) {
    for (rtl::u32 n = 1; n <= 70; ++n) {
      LinearEngine lane;
      AosLinearEngine aos;
      for (rtl::u32 i = 0; i < n; ++i) {
        const LabelPair pair{(i % 5) << 24 | (16 + i), 100 + i,
                             LabelOp::kSwap};
        ASSERT_TRUE(lane.write_pair(level, pair));
        ASSERT_TRUE(aos.write_pair(level, pair));
      }
      for (rtl::u32 p = 0; p <= 72; ++p) {
        const rtl::u32 key =
            p == 71 ? 0 : p == 72 ? 0xFFF00000u : (p % 5) << 24 | (16 + p);
        EXPECT_EQ(lane.lookup(level, key), aos.lookup(level, key))
            << "level " << level << " occupancy " << n << " key " << key;
        EXPECT_EQ(lane.last_entries_examined(), aos.last_entries_examined())
            << "level " << level << " occupancy " << n << " key " << key;
      }
    }
  }
}

// The acceptance property behind everything else: for any hit position —
// including every edge around the 16-lane block boundaries — the lane
// scan must report the same 1-based match position, and therefore the
// same 3k+5 search cycles, as the AoS scan.
TEST(LinearLane, MatchesTheAosScanAcrossLaneBoundaries) {
  LinearEngine lane;
  AosLinearEngine aos;
  for (rtl::u32 i = 1; i <= 100; ++i) {
    lane.write_pair(2, LabelPair{i, 1000 + i, LabelOp::kSwap});
    aos.write_pair(2, LabelPair{i, 1000 + i, LabelOp::kSwap});
  }
  for (rtl::u32 k : {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u,
                     99u, 100u}) {
    auto pl = labelled(k);
    auto pa = labelled(k);
    const auto ol = lane.update(pl, 2, hw::RouterType::kLsr);
    const auto oa = aos.update(pa, 2, hw::RouterType::kLsr);
    EXPECT_EQ(lane.last_entries_examined(), k) << "hit position " << k;
    EXPECT_EQ(ol.hw_cycles, oa.hw_cycles) << "hit position " << k;
    EXPECT_EQ(pl.stack.top().label, pa.stack.top().label);
  }
  // A miss examines the full occupancy on both engines.
  auto pl = labelled(999);
  auto pa = labelled(999);
  const auto ol = lane.update(pl, 2, hw::RouterType::kLsr);
  const auto oa = aos.update(pa, 2, hw::RouterType::kLsr);
  EXPECT_TRUE(ol.discarded);
  EXPECT_EQ(lane.last_entries_examined(), 100u);
  EXPECT_EQ(ol.hw_cycles, oa.hw_cycles);
}

// The key lane is zero-padded to whole compare blocks; those pad lanes
// must never satisfy a lookup for key 0 — until a real binding with
// key 0 is programmed, at which point it must hit at its true position.
TEST(LinearLane, PadLanesNeverMatch) {
  LinearEngine e;
  EXPECT_FALSE(e.lookup(2, 0).has_value()) << "empty store";
  for (rtl::u32 i = 1; i <= 3; ++i) {
    e.write_pair(2, LabelPair{i, 100 + i, LabelOp::kSwap});
  }
  // 3 live lanes, 13 zero pads in the first block.
  EXPECT_FALSE(e.lookup(2, 0).has_value()) << "pads must not match key 0";
  EXPECT_EQ(e.last_entries_examined(), 3u) << "a miss costs the occupancy";
  e.write_pair(2, LabelPair{0, 555, LabelOp::kSwap});
  const auto hit = e.lookup(2, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->new_label, 555u);
  EXPECT_EQ(e.last_entries_examined(), 4u) << "real key-0 entry, position 4";
}

// First-match-wins must hold *inside* one compare block, where all the
// duplicates are examined by the same block compare.
TEST(LinearLane, FirstMatchWinsWithinABlock) {
  LinearEngine e;
  e.write_pair(2, LabelPair{40, 111, LabelOp::kSwap});
  e.write_pair(2, LabelPair{40, 222, LabelOp::kPop});
  e.write_pair(2, LabelPair{40, 333, LabelOp::kSwap});
  const auto hit = e.lookup(2, 40);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->new_label, 111u);
  EXPECT_EQ(e.last_entries_examined(), 1u);
}

// Levels 2/3 compare only the 20 label bits, but lookup must return the
// pair exactly as written (raw index included) — as the AoS scan does.
TEST(LinearLane, RawIndexSurvivesKeyMasking) {
  LinearEngine lane;
  AosLinearEngine aos;
  const rtl::u32 raw = 0xFFF00028u;  // garbage above the 20 label bits
  lane.write_pair(2, LabelPair{raw, 77, LabelOp::kSwap});
  aos.write_pair(2, LabelPair{raw, 77, LabelOp::kSwap});
  const auto hl = lane.lookup(2, 0x28);
  const auto ha = aos.lookup(2, 0x28);
  ASSERT_TRUE(hl.has_value());
  ASSERT_TRUE(ha.has_value());
  EXPECT_EQ(hl->index, ha->index) << "stored pair returned as written";
  EXPECT_EQ(hl->index, raw);
  // Level 1 compares the full 32 bits: no masking, no aliasing.
  lane.write_pair(1, LabelPair{raw, 88, LabelOp::kPush});
  EXPECT_TRUE(lane.lookup(1, raw).has_value());
  EXPECT_FALSE(lane.lookup(1, 0x28).has_value());
}

TEST(LinearLane, CapacityEnforcedPerLevel) {
  LinearEngine e(4);
  for (rtl::u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(e.write_pair(2, LabelPair{i + 1, i, LabelOp::kSwap}));
  }
  EXPECT_FALSE(e.write_pair(2, LabelPair{99, 0, LabelOp::kSwap}));
  EXPECT_EQ(e.level_size(2), 4u);
  EXPECT_TRUE(e.write_pair(3, LabelPair{1, 0, LabelOp::kSwap}))
      << "levels have independent capacity";
}

TEST(LinearLane, CorruptEntryGarblesTheStoredLabel) {
  LinearEngine e;
  e.write_pair(2, LabelPair{40, 77, LabelOp::kSwap});
  EXPECT_FALSE(e.corrupt_entry(2, 41, 123)) << "no binding for 41";
  EXPECT_FALSE(e.corrupt_entry(2, 0, 123)) << "pad lanes hold no binding";
  EXPECT_TRUE(e.corrupt_entry(2, 40, 0xFFFFFFFFu));
  const auto hit = e.lookup(2, 40);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->new_label, 0xFFFFFFFFu & mpls::kMaxLabel)
      << "garbled label is masked to label width";
  EXPECT_EQ(hit->op, LabelOp::kSwap) << "operation survives the upset";
}

TEST(LinearLane, EveryMutationAdvancesTheEpoch) {
  LinearEngine e;
  const auto e0 = e.epoch();
  e.write_pair(2, LabelPair{40, 77, LabelOp::kSwap});
  EXPECT_EQ(e.epoch(), e0 + 1);
  e.corrupt_entry(2, 40, 1);
  EXPECT_EQ(e.epoch(), e0 + 2);
  e.corrupt_entry(2, 999, 1);  // failed corruption still invalidates
  EXPECT_EQ(e.epoch(), e0 + 3);
  e.clear();
  EXPECT_EQ(e.epoch(), e0 + 4);
  EXPECT_EQ(e.level_size(2), 0u);
  EXPECT_FALSE(e.lookup(2, 40).has_value()) << "clear empties the lane";
}

TEST(LinearLane, IsCacheableAndReportsLookupCost) {
  LinearEngine e;
  EXPECT_TRUE(e.cacheable());
  for (rtl::u32 i = 1; i <= 10; ++i) {
    e.write_pair(2, LabelPair{i, 100 + i, LabelOp::kSwap});
  }
  ASSERT_TRUE(e.lookup(2, 7).has_value());
  EXPECT_EQ(e.last_lookup_cost_cycles(), hw::search_cycles(7));
  ASSERT_FALSE(e.lookup(2, 999).has_value());
  EXPECT_EQ(e.last_lookup_cost_cycles(), hw::search_cycles(10));
}

TEST(LinearLane, BatchAgreesWithSequentialUpdates) {
  LinearEngine batched;
  AosLinearEngine sequential;
  for (rtl::u32 i = 1; i <= 40; ++i) {
    batched.write_pair(2, LabelPair{i, 1000 + i, LabelOp::kSwap});
    sequential.write_pair(2, LabelPair{i, 1000 + i, LabelOp::kSwap});
  }
  std::vector<mpls::Packet> packets;
  for (rtl::u32 i = 0; i < 64; ++i) {
    packets.push_back(labelled(1 + i % 45));  // some keys miss
  }
  auto copies = packets;
  std::vector<mpls::Packet*> ptrs;
  for (auto& p : packets) {
    ptrs.push_back(&p);
  }
  const auto outs = batched.update_batch(ptrs, hw::RouterType::kLsr);
  ASSERT_EQ(outs.size(), copies.size());
  rtl::u64 sum = 0;
  for (std::size_t i = 0; i < copies.size(); ++i) {
    const auto ref = sequential.update(copies[i], 2, hw::RouterType::kLsr);
    EXPECT_EQ(outs[i].discarded, ref.discarded) << i;
    EXPECT_EQ(outs[i].applied, ref.applied) << i;
    EXPECT_EQ(outs[i].hw_cycles, ref.hw_cycles) << i;
    EXPECT_EQ(packets[i].stack, copies[i].stack) << i;
    sum += ref.hw_cycles;
  }
  EXPECT_EQ(batched.last_batch_makespan_cycles(), sum)
      << "single datapath: makespan is the per-packet sum";
}

}  // namespace
}  // namespace empls::sw
