// Differential property test for the sharded forwarding plane:
// ShardedEngine(N) must agree bit-for-bit with the single-datapath
// LinearEngine golden model on arbitrary random programs and packet
// streams — outcomes, stack contents, TTLs, cycle counts — for N in
// {1, 2, 8}, including reprogramming between batches and injected
// corruptions.  A separate test pins the RSS-style cost model:
// outcomes come back in input order, and each datapath is charged
// exactly the batch packets of the flows shard_of() assigns it.
#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "hw/cycle_model.hpp"
#include "sw/linear_engine.hpp"
#include "sw/semantics.hpp"
#include "sw/sharded_engine.hpp"

namespace empls {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;

class ShardedDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {
 protected:
  [[nodiscard]] unsigned seed() const { return std::get<0>(GetParam()); }
  [[nodiscard]] unsigned shards() const { return std::get<1>(GetParam()); }
};

// Small key spaces force duplicates, hits and cross-shard collisions.
mpls::Packet random_packet(std::mt19937& rng) {
  mpls::Packet p;
  p.dst = mpls::Ipv4Address{static_cast<rtl::u32>(0xC0A80000 + rng() % 12)};
  p.cos = static_cast<rtl::u8>(rng() & 7);
  p.ip_ttl = static_cast<rtl::u8>(rng() % 4 == 0 ? rng() % 3 : rng());
  const auto depth = rng() % 4;
  for (rtl::u32 d = 0; d < depth; ++d) {
    p.stack.push(LabelEntry{static_cast<rtl::u32>(1 + rng() % 12),
                            static_cast<rtl::u8>(rng() & 7), false,
                            static_cast<rtl::u8>(rng() % 4 == 0 ? rng() % 3
                                                                : rng())});
  }
  return p;
}

LabelPair random_pair(std::mt19937& rng, unsigned level) {
  const rtl::u32 key =
      level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
  return LabelPair{key, static_cast<rtl::u32>(100 + rng() % 900),
                   static_cast<LabelOp>(rng() % 4)};
}

TEST_P(ShardedDifferential, BatchesAgreeWithGoldenAcrossReprogramming) {
  std::mt19937 rng(seed());
  sw::ShardedEngine sharded(shards());
  sw::LinearEngine golden;
  ASSERT_EQ(sharded.parallelism(), shards());

  // Random initial program.
  for (int i = 0; i < 30; ++i) {
    const unsigned level = 1 + rng() % 3;
    const auto pair = random_pair(rng, level);
    ASSERT_EQ(sharded.write_pair(level, pair),
              golden.write_pair(level, pair));
  }

  for (int round = 0; round < 6; ++round) {
    // A batch of random packets through the sharded plane, the same
    // packets one-by-one through the golden model.
    std::vector<mpls::Packet> a(64);
    std::vector<mpls::Packet> b(64);
    std::vector<mpls::Packet*> ptrs(64);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = random_packet(rng);
      b[i] = a[i];
      ptrs[i] = &a[i];
    }
    const auto type =
        rng() % 2 == 0 ? hw::RouterType::kLer : hw::RouterType::kLsr;
    const auto outcomes = sharded.update_batch(ptrs, type);
    ASSERT_EQ(outcomes.size(), a.size());

    rtl::u64 golden_cycles = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto want = golden.update(b[i], sw::classify_level(b[i]), type);
      golden_cycles += want.hw_cycles;
      ASSERT_EQ(outcomes[i].discarded, want.discarded)
          << "round " << round << " packet " << i;
      ASSERT_EQ(outcomes[i].reason, want.reason)
          << "round " << round << " packet " << i;
      ASSERT_EQ(outcomes[i].applied, want.applied)
          << "round " << round << " packet " << i;
      ASSERT_EQ(outcomes[i].ttl_after, want.ttl_after)
          << "round " << round << " packet " << i;
      ASSERT_EQ(outcomes[i].hw_cycles, want.hw_cycles)
          << "round " << round << " packet " << i;
      ASSERT_EQ(a[i].stack, b[i].stack)
          << "round " << round << " packet " << i
          << "\n  sharded: " << a[i].stack.to_string()
          << "\n  golden:  " << b[i].stack.to_string();
    }
    // The makespan is the slowest shard, so it never exceeds the serial
    // sum, and per-shard loads must account for every packet and cycle.
    EXPECT_LE(sharded.last_batch_makespan_cycles(), golden_cycles);
    rtl::u64 load_packets = 0;
    rtl::u64 load_cycles = 0;
    rtl::u64 slowest = 0;
    for (const auto& load : sharded.last_batch_loads()) {
      load_packets += load.packets;
      load_cycles += load.cycles;
      slowest = std::max(slowest, load.cycles);
    }
    EXPECT_EQ(load_packets, a.size());
    EXPECT_EQ(load_cycles, golden_cycles);
    EXPECT_EQ(slowest, sharded.last_batch_makespan_cycles());

    // Mid-stream reprogramming + an occasional injected corruption: the
    // write path must reach the inner engine, so the engines keep
    // agreeing afterwards.
    for (int i = 0; i < 4; ++i) {
      const unsigned level = 1 + rng() % 3;
      const auto pair = random_pair(rng, level);
      ASSERT_EQ(sharded.write_pair(level, pair),
                golden.write_pair(level, pair));
    }
    if (round % 2 == 1) {
      const unsigned level = 1 + rng() % 3;
      const rtl::u32 key =
          level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
      const rtl::u32 bad = 0x80000 + rng() % 256;
      ASSERT_EQ(sharded.corrupt_entry(level, key, bad),
                golden.corrupt_entry(level, key, bad));
    }
    for (unsigned level = 1; level <= 3; ++level) {
      ASSERT_EQ(sharded.level_size(level), golden.level_size(level));
      const rtl::u32 key =
          level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
      ASSERT_EQ(sharded.lookup(level, key), golden.lookup(level, key));
    }
  }
}

TEST_P(ShardedDifferential, SingleUpdatesAgreeAtCallerChosenLevels) {
  std::mt19937 rng(seed() * 31 + 7);
  sw::ShardedEngine sharded(shards());
  sw::LinearEngine golden;
  for (int i = 0; i < 30; ++i) {
    const unsigned level = 1 + rng() % 3;
    const auto pair = random_pair(rng, level);
    ASSERT_EQ(sharded.write_pair(level, pair),
              golden.write_pair(level, pair));
  }

  // The single-packet path honours the caller's level (which may not be
  // what classify_level would pick) exactly like the golden model.
  for (int trial = 0; trial < 120; ++trial) {
    mpls::Packet a = random_packet(rng);
    mpls::Packet b = a;
    const unsigned level = 1 + rng() % 3;
    const auto type =
        rng() % 2 == 0 ? hw::RouterType::kLer : hw::RouterType::kLsr;
    const auto got = sharded.update(a, level, type);
    const auto want = golden.update(b, level, type);
    ASSERT_EQ(got.discarded, want.discarded) << "trial " << trial;
    ASSERT_EQ(got.reason, want.reason) << "trial " << trial;
    ASSERT_EQ(got.applied, want.applied) << "trial " << trial;
    ASSERT_EQ(got.ttl_after, want.ttl_after) << "trial " << trial;
    ASSERT_EQ(got.hw_cycles, want.hw_cycles) << "trial " << trial;
    ASSERT_EQ(a.stack, b.stack) << "trial " << trial;
  }
}

TEST_P(ShardedDifferential, PerFlowOrderAndShardAffinityHold) {
  std::mt19937 rng(seed() * 101 + 3);
  sw::ShardedEngine sharded(shards());
  for (rtl::u32 label = 1; label <= 12; ++label) {
    // Label L is entry L, so its swap costs update_swap_cycles(L).
    ASSERT_TRUE(sharded.write_pair(
        2, LabelPair{label, label + 100, LabelOp::kSwap}));
  }

  // 12 flows (one per label), many packets per flow, interleaved.
  std::vector<mpls::Packet> packets(240);
  std::vector<mpls::Packet*> ptrs(packets.size());
  std::vector<rtl::u32> flows(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    flows[i] = 1 + rng() % 12;
    packets[i].ip_ttl = 200;
    packets[i].stack.push(LabelEntry{flows[i], 0, true, 200});
    ptrs[i] = &packets[i];
  }
  const auto outcomes = sharded.update_batch(ptrs, hw::RouterType::kLsr);
  ASSERT_EQ(outcomes.size(), packets.size());

  // Outcome i is packet i's, and every packet is charged to the
  // datapath shard_of assigns its flow.
  std::vector<sw::ShardedEngine::ShardLoad> want(shards());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    ASSERT_FALSE(outcomes[i].discarded) << "packet " << i;
    EXPECT_EQ(packets[i].stack.top().label, flows[i] + 100) << "packet " << i;
    EXPECT_EQ(outcomes[i].hw_cycles, hw::update_swap_cycles(flows[i]))
        << "packet " << i;
    auto& load = want[sharded.shard_of(2, flows[i])];
    load.packets += 1;
    load.cycles += outcomes[i].hw_cycles;
  }
  const auto& got = sharded.last_batch_loads();
  ASSERT_EQ(got.size(), shards());
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].packets, want[s].packets) << "datapath " << s;
    EXPECT_EQ(got[s].cycles, want[s].cycles) << "datapath " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, ShardedDifferential,
    ::testing::Combine(::testing::Values(1u, 42u, 2005u, 31415u),
                       ::testing::Values(1u, 2u, 8u)));

}  // namespace
}  // namespace empls
