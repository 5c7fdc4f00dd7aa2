// Differential test of the ingress wire check.  IngressProcessor::
// wire_round_trip_ok serialises into and parses back into per-thread
// scratch storage; the oracle below is the original implementation, a
// fresh buffer and a fresh packet per call.  Seeded random packets cover
// valid packets and every way a round trip can fail, in an order that
// leaves deeper stacks and larger payloads in the scratch storage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/ingress.hpp"

namespace empls::core {
namespace {

using mpls::L2Type;
using mpls::LabelEntry;
using mpls::LabelStack;
using mpls::Packet;

bool oracle_round_trip_ok(const Packet& packet) {
  const auto bytes = packet.serialize();
  const auto reparsed = Packet::parse(bytes);
  if (!reparsed) {
    return false;
  }
  return reparsed->l2 == packet.l2 && reparsed->src == packet.src &&
         reparsed->dst == packet.dst && reparsed->cos == packet.cos &&
         reparsed->ip_ttl == packet.ip_ttl &&
         reparsed->stack == packet.stack &&
         reparsed->payload == packet.payload;
}

/// The ways a packet can fail the round trip, plus kNone.
enum class Flaw {
  kNone,
  kWideLabel,     // a label wider than 20 bits (encode truncates it)
  kEntryCos,      // an entry CoS above 7 (likewise)
  kHugePayload,   // more than 65535 payload bytes (the length wraps)
  kBadL2,         // an l2 value past kFrameRelay (the parser refuses it)
  kOverDeep,      // more entries than the parser's hardware depth
  kOddCapacity,   // a stack whose capacity is not the parser's
  kCount,
};

Packet random_packet(std::mt19937_64& rng, Flaw flaw) {
  Packet p;
  p.l2 = static_cast<L2Type>(rng() % 3);
  p.src.value = static_cast<std::uint32_t>(rng());
  p.dst.value = static_cast<std::uint32_t>(rng());
  p.cos = static_cast<std::uint8_t>(rng());
  p.ip_ttl = static_cast<std::uint8_t>(rng());
  p.id = rng();  // simulation metadata: never on the wire
  p.flow_id = static_cast<std::uint32_t>(rng());
  p.created_at = 1e-6 * static_cast<double>(rng() % 1000000);

  const bool wide = flaw == Flaw::kOverDeep || flaw == Flaw::kOddCapacity;
  p.stack = LabelStack(wide ? 5 : LabelStack::kHardwareDepth);
  std::size_t depth = rng() % 4;
  if (flaw == Flaw::kOverDeep) {
    depth = 4 + rng() % 2;
  } else if (flaw == Flaw::kWideLabel || flaw == Flaw::kEntryCos) {
    depth = 1 + rng() % 3;
  }
  const std::size_t flawed = depth > 0 ? rng() % depth : 0;
  for (std::size_t i = 0; i < depth; ++i) {
    LabelEntry e{static_cast<std::uint32_t>(rng()) & mpls::kMaxLabel,
                 static_cast<std::uint8_t>(rng() % 8), false,
                 static_cast<std::uint8_t>(rng())};
    if (i == flawed && flaw == Flaw::kWideLabel) {
      e.label |= (1u + static_cast<std::uint32_t>(rng() % 4095))
                 << mpls::kLabelBits;
    }
    if (i == flawed && flaw == Flaw::kEntryCos) {
      e.cos = static_cast<std::uint8_t>(8 + rng() % 248);
    }
    EXPECT_TRUE(p.stack.push(e));
  }

  std::size_t payload = rng() % 600;
  if (flaw == Flaw::kHugePayload) {
    payload = 65536 + rng() % 4000;
  }
  p.payload.resize(payload);
  for (auto& b : p.payload) {
    b = static_cast<std::uint8_t>(rng());
  }
  if (flaw == Flaw::kBadL2) {
    p.l2 = static_cast<L2Type>(3 + rng() % 253);
  }
  return p;
}

TEST(WireCheck, MatchesTheFreshBufferOracle) {
  std::mt19937_64 rng(20261017);
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto flaw = static_cast<Flaw>(rng() % static_cast<int>(Flaw::kCount));
    const Packet p = random_packet(rng, flaw);
    const bool expected = oracle_round_trip_ok(p);
    ASSERT_EQ(expected, flaw == Flaw::kNone)
        << "trial " << trial << ": the generator's flaw must decide the oracle";
    ASSERT_EQ(IngressProcessor::wire_round_trip_ok(p), expected)
        << "trial " << trial << " flaw " << static_cast<int>(flaw) << ' '
        << p.to_string();
    rejected += expected ? 0 : 1;
  }
  EXPECT_GT(rejected, 3000);
}

TEST(WireCheck, ThreadsKeepSeparateScratch) {
  // Free-running domains validate on several threads at once.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([t, &mismatches] {
      std::mt19937_64 rng(1000 + t);
      for (int trial = 0; trial < 1000; ++trial) {
        const auto flaw = rng() % 2 == 0 ? Flaw::kNone : Flaw::kWideLabel;
        const Packet p = random_packet(rng, flaw);
        if (IngressProcessor::wire_round_trip_ok(p) !=
            oracle_round_trip_ok(p)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

void expect_same_packet(const Packet& a, const Packet& b) {
  EXPECT_EQ(a.l2, b.l2);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.cos, b.cos);
  EXPECT_EQ(a.ip_ttl, b.ip_ttl);
  EXPECT_EQ(a.stack, b.stack);  // entries and capacity
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.created_at, b.created_at);
  EXPECT_EQ(a.flow_id, b.flow_id);
}

TEST(WireCheck, ParseIntoReusesADeeperLargerPacket) {
  // A packet that last held a deeper stack (of a wider capacity), a
  // larger payload and simulation metadata.
  auto dirty = [] {
    Packet p;
    p.stack = LabelStack(5);
    for (std::uint32_t label = 16; label < 20; ++label) {
      EXPECT_TRUE(p.stack.push(LabelEntry{label, 1, false, 9}));
    }
    p.payload.assign(2000, 0xAB);
    p.id = 77;
    p.flow_id = 5;
    p.created_at = 3.5;
    return p;
  };

  Packet labeled;
  labeled.l2 = L2Type::kAtm;
  labeled.dst.value = 0x0A000001;
  ASSERT_TRUE(labeled.stack.push(LabelEntry{42, 3, false, 64}));
  labeled.payload = {1, 2, 3};
  Packet bare;  // unlabeled: the stack must empty to the parser's capacity
  bare.payload = {9};

  for (const Packet* source : {&labeled, &bare}) {
    const auto bytes = source->serialize();
    Packet reused = dirty();
    ASSERT_TRUE(Packet::parse_into(bytes, reused));
    expect_same_packet(reused, *Packet::parse(bytes));
    EXPECT_EQ(reused.stack.capacity(), LabelStack::kHardwareDepth);
  }
}

TEST(WireCheck, UnterminatedShimIsRejectedByBothParsers) {
  // LabelStack::push keeps the S bit on the bottom entry, so no Packet
  // serialises an unterminated shim; build one on the wire instead.
  Packet p;
  ASSERT_TRUE(p.stack.push(LabelEntry{100, 2, false, 64}));
  ASSERT_TRUE(p.stack.push(LabelEntry{200, 3, false, 63}));
  auto bytes = p.serialize();
  // The bottom entry is the second shim word; its S bit is bit 0 of the
  // word's third byte.
  bytes[mpls::kPacketHeaderBytes + 4 + 2] &= 0xFE;
  EXPECT_FALSE(Packet::parse(bytes).has_value());
  Packet dirty = p;
  EXPECT_FALSE(Packet::parse_into(bytes, dirty));
  const auto shim = std::span<const std::uint8_t>(bytes).subspan(
      mpls::kPacketHeaderBytes, 8);
  EXPECT_FALSE(LabelStack::parse(shim).has_value());
  LabelStack stack;
  EXPECT_FALSE(LabelStack::parse_into(shim, stack));
}

TEST(WireCheck, ParseIntoAgreesWithParseOnMutatedBytes) {
  // One packet and one stack reused across every trial, so each parse
  // starts from whatever the previous trial left behind.
  std::mt19937_64 rng(99);
  Packet reused;
  LabelStack reused_stack;
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    auto bytes = random_packet(rng, Flaw::kNone).serialize();
    const auto mutations = rng() % 4;
    for (unsigned m = 0; m < mutations; ++m) {
      bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    }
    const auto fresh = Packet::parse(bytes);
    ASSERT_EQ(Packet::parse_into(bytes, reused), fresh.has_value())
        << "trial " << trial;
    if (fresh) {
      ++accepted;
      expect_same_packet(reused, *fresh);
    }
    const std::size_t capacity = rng() % 5;
    const auto shim =
        std::span<const std::uint8_t>(bytes).subspan(mpls::kPacketHeaderBytes);
    const auto fresh_stack = LabelStack::parse(shim, capacity);
    ASSERT_EQ(LabelStack::parse_into(shim, reused_stack, capacity),
              fresh_stack.has_value())
        << "trial " << trial;
    if (fresh_stack) {
      EXPECT_EQ(reused_stack, *fresh_stack);
    }
  }
  EXPECT_GT(accepted, 1000);
}

}  // namespace
}  // namespace empls::core
