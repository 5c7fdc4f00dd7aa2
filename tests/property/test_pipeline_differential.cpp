// Differential property test at the full-pipeline level: random
// programs and packets through the RTL packet pipeline (ingress DMA →
// modifier → egress DMA) against the golden software semantics —
// packets, payloads, headers and stacks must survive bit-for-bit.
#include <gtest/gtest.h>

#include <random>

#include "hw/packet_pipeline.hpp"
#include "sw/linear_engine.hpp"

namespace empls {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;
using mpls::LabelPair;

class PipelineDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineDifferential, RandomTrafficAgrees) {
  std::mt19937 rng(GetParam());
  const auto type =
      rng() % 2 ? hw::RouterType::kLer : hw::RouterType::kLsr;
  hw::PacketPipeline pipeline(type);
  sw::LinearEngine golden;

  for (int i = 0; i < 25; ++i) {
    const unsigned level = 1 + rng() % 3;
    const rtl::u32 key = static_cast<rtl::u32>(
        level == 1 ? 0x0A000000 + rng() % 8 : 1 + rng() % 8);
    const LabelPair pair{key, static_cast<rtl::u32>(100 + rng() % 400),
                         static_cast<LabelOp>(rng() % 4)};
    ASSERT_TRUE(golden.write_pair(level, pair));
    pipeline.modifier().write_pair(level, pair);
  }

  for (int trial = 0; trial < 40; ++trial) {
    mpls::Packet a;
    a.l2 = static_cast<mpls::L2Type>(rng() % 3);
    a.src = mpls::Ipv4Address{static_cast<rtl::u32>(rng())};
    a.dst = mpls::Ipv4Address{static_cast<rtl::u32>(0x0A000000 + rng() % 8)};
    a.cos = static_cast<rtl::u8>(rng() & 7);
    a.ip_ttl = static_cast<rtl::u8>(rng() % 5 == 0 ? rng() % 3 : 64);
    const auto depth = rng() % 4;
    for (rtl::u32 d = 0; d < depth; ++d) {
      a.stack.push(LabelEntry{static_cast<rtl::u32>(1 + rng() % 8),
                              static_cast<rtl::u8>(rng() & 7), false,
                              static_cast<rtl::u8>(2 + rng() % 100)});
    }
    a.payload.resize(rng() % 200);
    for (auto& byte : a.payload) {
      byte = static_cast<rtl::u8>(rng());
    }
    mpls::Packet b = a;
    const std::size_t wire_in = a.wire_size();
    const unsigned level =
        a.stack.empty()
            ? 1
            : static_cast<unsigned>(
                  std::min<std::size_t>(a.stack.size() + 1, 3));

    const auto ra = pipeline.process(a, level);
    const auto ob = golden.update(b, level, type);

    // The pipeline includes the egress TTL write-back (hardware owns
    // the whole packet); mirror it on the golden side, where that step
    // belongs to the router's egress stage.
    if (!ob.discarded && b.stack.empty()) {
      b.ip_ttl = ob.ttl_after;
    }

    ASSERT_FALSE(ra.malformed) << "trial " << trial;
    ASSERT_EQ(ra.discarded, ob.discarded) << "trial " << trial;
    // The modifier's search misses exactly when the golden model finds
    // no binding; every other discard is a TTL or consistency verdict.
    ASSERT_EQ(!pipeline.modifier().item_found(),
              ob.reason == sw::DiscardReason::kMiss)
        << "trial " << trial;
    if (ra.discarded) {
      continue;
    }
    // The pipeline re-generated the packet from its wire image: the new
    // stack, and every non-stack field, must match the golden update.
    const mpls::Packet& out = ra.packet;
    ASSERT_EQ(out.stack, b.stack) << "trial " << trial;
    ASSERT_EQ(ra.applied, ob.applied) << "trial " << trial;
    ASSERT_EQ(out.payload, b.payload) << "trial " << trial;
    ASSERT_EQ(out.src, b.src) << "trial " << trial;
    ASSERT_EQ(out.dst, b.dst) << "trial " << trial;
    ASSERT_EQ(out.l2, b.l2) << "trial " << trial;
    ASSERT_EQ(out.ip_ttl, b.ip_ttl) << "trial " << trial;
    ASSERT_EQ(out.cos, b.cos) << "trial " << trial;
    // And the pipeline's cycle count covers at least the ingress DMA.
    ASSERT_GE(ra.cycles, (wire_in + 3) / 4) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferential,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace empls
