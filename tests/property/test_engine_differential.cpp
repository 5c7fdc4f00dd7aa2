// Cross-engine differential fuzz: every software lookup engine must
// agree with the golden linear scan on arbitrary random programs and
// packet streams — same discard decisions, same applied operations,
// same TTLs, same resulting stacks — with the information base mutated
// mid-stream (write_pair, corrupt_entry, clear + reprogram) between
// packet bursts.  The golden model is the test-owned array-of-structures
// scan (aos_oracle.hpp), so LinearEngine's key-lane scan is one of the
// engines under test.  Engines that mirror the hardware's linear-search
// cost model (linear, trie, and the sharded plane whose replicas run
// them) must also charge bit-identical Table 6 cycles; CAM intentionally
// costs differently, so only its semantics are compared.
//
// The sharded parameterization runs the batches through real worker
// threads, which is why the TSan CI job includes this suite.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "../sw/aos_oracle.hpp"
#include "sw/cam_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/semantics.hpp"
#include "sw/sharded_engine.hpp"
#include "sw/trie_engine.hpp"

namespace empls {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;

std::unique_ptr<sw::LabelEngine> make_engine(const std::string& kind) {
  if (kind == "linear") {
    return std::make_unique<sw::LinearEngine>();
  }
  if (kind == "cam") {
    return std::make_unique<sw::CamEngine>();
  }
  if (kind == "trie") {
    return std::make_unique<sw::TrieEngine>();
  }
  if (kind == "sharded2") {
    return std::make_unique<sw::ShardedEngine>(2);
  }
  if (kind == "sharded2trie") {
    return std::make_unique<sw::ShardedEngine>(
        2, [] { return std::make_unique<sw::TrieEngine>(); });
  }
  return nullptr;
}

/// Whether `kind` models the same linear-search hardware as the golden
/// engine (then cycles must match bit for bit, not just semantics).
/// The trie engine qualifies: below the paper's 1024-pair boundary its
/// cost model charges the exact linear-equivalent position.
bool cycles_comparable(const std::string& kind) {
  return kind == "linear" || kind == "sharded2" || kind == "trie" ||
         kind == "sharded2trie";
}

// Small key spaces force duplicates, hits, misses and corruption
// collisions.
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

class EngineDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, std::string>> {
 protected:
  [[nodiscard]] unsigned seed() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::string kind() const { return std::get<1>(GetParam()); }
};

TEST_P(EngineDifferential, StreamsAgreeWithGoldenUnderMidStreamMutation) {
  std::mt19937 rng(seed());
  auto engine = make_engine(kind());
  ASSERT_NE(engine, nullptr);
  sw::oracle::AosLinearEngine golden;
  const bool cycles = cycles_comparable(kind());

  auto program = [&](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      const unsigned level = 1 + rng() % 3;
      const auto pair = random_pair(rng, level);
      ASSERT_TRUE(engine->write_pair(level, pair));
      ASSERT_TRUE(golden.write_pair(level, pair));
    }
  };
  program(30);

  for (int round = 0; round < 8; ++round) {
    const auto type =
        rng() % 2 == 0 ? hw::RouterType::kLer : hw::RouterType::kLsr;
    for (int trial = 0; trial < 40; ++trial) {
      mpls::Packet a = random_packet(rng);
      mpls::Packet b = a;
      const auto got = engine->update(a, sw::classify_level(a), type);
      const auto want = golden.update(b, sw::classify_level(b), type);
      ASSERT_EQ(got.discarded, want.discarded)
          << kind() << " round " << round << " trial " << trial;
      ASSERT_EQ(got.reason, want.reason)
          << kind() << " round " << round << " trial " << trial;
      ASSERT_EQ(got.applied, want.applied)
          << kind() << " round " << round << " trial " << trial;
      ASSERT_EQ(got.ttl_after, want.ttl_after)
          << kind() << " round " << round << " trial " << trial;
      if (cycles) {
        ASSERT_EQ(got.hw_cycles, want.hw_cycles)
            << kind() << " round " << round << " trial " << trial;
      }
      ASSERT_EQ(a.stack, b.stack)
          << kind() << " round " << round << " trial " << trial
          << "\n  engine: " << a.stack.to_string()
          << "\n  golden: " << b.stack.to_string();
    }

    // Mid-stream mutation: fresh bindings every round, an injected
    // corruption on odd rounds, a full clear + identical reprogram on
    // every third.  The engines must keep agreeing afterwards.
    program(4);
    if (round % 2 == 1) {
      const unsigned level = 1 + rng() % 3;
      const rtl::u32 key =
          level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
      const rtl::u32 bad = 0x80000 + rng() % 256;
      ASSERT_EQ(engine->corrupt_entry(level, key, bad),
                golden.corrupt_entry(level, key, bad))
          << kind() << ": corruption found a binding in one engine only";
    }
    if (round % 3 == 2) {
      engine->clear();
      golden.clear();
      program(20);
    }
    for (unsigned level = 1; level <= 3; ++level) {
      const rtl::u32 key =
          level == 1 ? 0xC0A80000 + rng() % 12 : 1 + rng() % 12;
      ASSERT_EQ(engine->lookup(level, key), golden.lookup(level, key))
          << kind() << " level " << level;
    }
  }
}

TEST_P(EngineDifferential, BatchesAgreeWithGoldenSequential) {
  std::mt19937 rng(seed() * 31 + 7);
  auto engine = make_engine(kind());
  ASSERT_NE(engine, nullptr);
  sw::oracle::AosLinearEngine golden;
  const bool cycles = cycles_comparable(kind());

  for (int i = 0; i < 30; ++i) {
    const unsigned level = 1 + rng() % 3;
    const auto pair = random_pair(rng, level);
    ASSERT_TRUE(engine->write_pair(level, pair));
    ASSERT_TRUE(golden.write_pair(level, pair));
  }

  for (int round = 0; round < 4; ++round) {
    std::vector<mpls::Packet> a(48);
    std::vector<mpls::Packet> b(48);
    std::vector<mpls::Packet*> ptrs(48);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = random_packet(rng);
      b[i] = a[i];
      ptrs[i] = &a[i];
    }
    const auto type =
        rng() % 2 == 0 ? hw::RouterType::kLer : hw::RouterType::kLsr;
    const auto outcomes = engine->update_batch(ptrs, type);
    ASSERT_EQ(outcomes.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto want = golden.update(b[i], sw::classify_level(b[i]), type);
      ASSERT_EQ(outcomes[i].discarded, want.discarded)
          << kind() << " round " << round << " packet " << i;
      ASSERT_EQ(outcomes[i].applied, want.applied)
          << kind() << " round " << round << " packet " << i;
      ASSERT_EQ(outcomes[i].ttl_after, want.ttl_after)
          << kind() << " round " << round << " packet " << i;
      if (cycles) {
        ASSERT_EQ(outcomes[i].hw_cycles, want.hw_cycles)
            << kind() << " round " << round << " packet " << i;
      }
      ASSERT_EQ(a[i].stack, b[i].stack)
          << kind() << " round " << round << " packet " << i;
    }
    // Reprogram between batches (the sharded plane quiesces here).
    const unsigned level = 1 + rng() % 3;
    const auto pair = random_pair(rng, level);
    ASSERT_TRUE(engine->write_pair(level, pair));
    ASSERT_TRUE(golden.write_pair(level, pair));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByEngine, EngineDifferential,
    ::testing::Combine(::testing::Values(1u, 42u, 31415u),
                       ::testing::Values(std::string("linear"),
                                         std::string("cam"),
                                         std::string("trie"),
                                         std::string("sharded2"),
                                         std::string("sharded2trie"))),
    [](const auto& info) {
      return std::get<1>(info.param) + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace empls
