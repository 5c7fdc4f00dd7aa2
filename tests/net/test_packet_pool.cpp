// Unit tests for the slab packet pool and its move-only handle: freelist
// recycling, buffer-capacity reuse, stats, and end-to-end pool flow
// through a forwarding network.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/packet_pool.hpp"
#include "net/traffic.hpp"

namespace empls::net {
namespace {

TEST(PacketPool, AcquireGivesDefaultStatePacket) {
  PacketPool pool;
  auto p = pool.acquire();
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->stack.empty());
  EXPECT_TRUE(p->payload.empty());
  EXPECT_EQ(p->ip_ttl, 64);
  EXPECT_EQ(pool.stats().in_use, 1u);
}

TEST(PacketPool, ReleaseRecyclesTheSameSlot) {
  PacketPool pool;
  mpls::Packet* first;
  {
    auto p = pool.acquire();
    first = p.get();
    p->payload.assign(512, 0xCD);
  }  // handle destruction releases back to the pool
  EXPECT_EQ(pool.stats().in_use, 0u);

  auto q = pool.acquire();
  EXPECT_EQ(q.get(), first) << "freelist hands the hot slot back";
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_TRUE(q->payload.empty()) << "recycled packet is field-reset";
  EXPECT_GE(q->payload.capacity(), 512u)
      << "but the payload buffer capacity survives recycling";
}

TEST(PacketPool, HighWaterTracksPeakConcurrency) {
  PacketPool pool(4);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 10; ++i) {
    held.push_back(pool.acquire());
  }
  held.clear();
  auto p = pool.acquire();
  EXPECT_EQ(pool.stats().high_water, 10u);
  EXPECT_EQ(pool.stats().in_use, 1u);
  EXPECT_GE(pool.stats().capacity, 10u) << "slabs grew to cover the peak";
}

TEST(PacketPool, WarmPoolStopsGrowingCapacity) {
  PacketPool pool(8);
  for (int round = 0; round < 3; ++round) {
    std::vector<PacketHandle> held;
    for (int i = 0; i < 8; ++i) {
      held.push_back(pool.acquire());
    }
  }
  EXPECT_EQ(pool.stats().capacity, 8u)
      << "steady-state reuse never carves another slab";
  // Only the very first acquire carved; everything after came off the
  // freelist (a fresh slab pre-loads it, so those count as hits too).
  EXPECT_EQ(pool.stats().recycled, pool.stats().acquired - 1);
}

TEST(PacketHandle, MoveTransfersOwnership) {
  PacketPool pool;
  auto a = pool.acquire();
  mpls::Packet* raw = a.get();
  PacketHandle b = std::move(a);
  EXPECT_FALSE(a.has_value());
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(pool.stats().in_use, 1u);
}

TEST(PacketHandle, WrapsBarePacketOutsideAnyPool) {
  mpls::Packet p;
  p.cos = 5;
  PacketHandle h(std::move(p));
  ASSERT_TRUE(h);
  EXPECT_EQ(h->cos, 5);
  h.reset();
  EXPECT_FALSE(h.has_value());
}

/// Absorbs traffic so injected packets complete their pool round trip.
class NullSink : public Node {
 public:
  explicit NullSink(std::string name) : Node(std::move(name)) {}
  void receive(PacketHandle, mpls::InterfaceId) override {}
};

TEST(PacketPool, SteadyStateForwardingRecyclesEverything) {
  Network net;
  const auto a = net.add_node(std::make_unique<NullSink>("A"));

  FlowSpec spec;
  spec.flow_id = 1;
  spec.ingress = a;
  spec.dst = *mpls::Ipv4Address::parse("10.0.0.1");
  spec.payload_bytes = 200;
  spec.start = 0.0;
  spec.stop = 1.0;
  CbrSource src(net, spec, nullptr, /*interval=*/1e-3);
  src.start();
  net.run();

  const auto& stats = net.pool().stats();
  EXPECT_EQ(stats.in_use, 0u) << "every emitted packet was released";
  EXPECT_GT(stats.acquired, 100u);
  // The sink frees each packet before the next emission, so after the
  // first acquisition every packet is a freelist hit.
  EXPECT_EQ(stats.recycled, stats.acquired - 1);
  EXPECT_EQ(stats.high_water, 1u);
}

}  // namespace
}  // namespace empls::net
