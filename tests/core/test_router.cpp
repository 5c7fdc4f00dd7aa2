// Unit tests for the embedded router's receive path: forwarding,
// latency charging, discard accounting, malformed-wire rejection, the
// packet tap, and the slow-path retry.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/embedded_router.hpp"
#include "hw/cycle_model.hpp"
#include "net/network.hpp"
#include "sw/linear_engine.hpp"
#include "sw/sharded_engine.hpp"

namespace empls::core {
namespace {

using mpls::LabelEntry;
using mpls::LabelOp;

class SinkNode : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(net::PacketHandle packet, mpls::InterfaceId) override {
    arrival_time = network()->now();
    last = std::move(*packet);
    ++count;
  }
  net::SimTime arrival_time = -1;
  mpls::Packet last;
  int count = 0;
};

struct Rig {
  net::Network net;
  net::NodeId router_id;
  net::NodeId sink_id;

  explicit Rig(RouterConfig cfg = {}) {
    auto r = std::make_unique<EmbeddedRouter>(
        "R", std::make_unique<sw::LinearEngine>(), cfg);
    router_id = net.add_node(std::move(r));
    sink_id = net.add_node(std::make_unique<SinkNode>("sink"));
    net.connect(router_id, sink_id, 1e9, 0.0);
  }
  EmbeddedRouter& router() { return net.node_as<EmbeddedRouter>(router_id); }
  SinkNode& sink() { return net.node_as<SinkNode>(sink_id); }
};

mpls::Packet labeled(rtl::u32 label, rtl::u8 ttl = 64) {
  mpls::Packet p;
  p.stack.push(LabelEntry{label, 0, false, ttl});
  return p;
}

TEST(Router, SwapForwardsOutTheProgrammedPort) {
  Rig rig;
  rig.router().routing().program_swap(2, 40, 77, 0);
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  ASSERT_EQ(rig.sink().count, 1);
  EXPECT_EQ(rig.sink().last.stack.top().label, 77u);
  EXPECT_EQ(rig.router().stats().forwarded, 1u);
  EXPECT_EQ(rig.router().stats().swaps, 1u);
}

TEST(Router, ProcessingLatencyUsesEngineCyclesAtConfiguredClock) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;  // 1 MHz: 1 us per cycle, easy to read
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  // update_swap_cycles(1) = 14 cycles at 1 MHz = 14 us, plus the 1 Gb/s
  // transmission (~0.2 us).
  EXPECT_NEAR(rig.sink().arrival_time, 14e-6, 1e-6);
}

TEST(Router, PopToLocalDelivery) {
  Rig rig;
  rig.router().routing().program_pop(2, 40, mpls::kLocalDeliver);
  mpls::Packet seen;
  int delivered = 0;
  rig.net.set_delivery_handler([&](net::NodeId id, const mpls::Packet& p) {
    EXPECT_EQ(id, rig.router_id);
    seen = p;
    ++delivered;
  });
  rig.net.inject(rig.router_id, labeled(40, 50));
  rig.net.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(seen.stack.empty());
  EXPECT_EQ(seen.ip_ttl, 49u) << "egress writes the label TTL back";
  EXPECT_EQ(rig.router().stats().delivered_local, 1u);
}

TEST(Router, UnknownLabelDiscards) {
  Rig rig;
  rig.net.inject(rig.router_id, labeled(999));
  rig.net.run();
  EXPECT_EQ(rig.router().stats().discarded, 1u);
  EXPECT_EQ(rig.sink().count, 0);
}

TEST(Router, MissingNextHopDiscardsEvenAfterEngineSuccess) {
  // Program the engine directly, bypassing the routing functionality, so
  // the update succeeds but next-hop resolution fails.
  Rig rig;
  rig.router().engine().write_pair(
      2, mpls::LabelPair{40, 77, LabelOp::kSwap});
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  EXPECT_EQ(rig.router().stats().discarded, 1u);
  EXPECT_EQ(rig.sink().count, 0);
}

TEST(Router, SlowPathRetriesOnce) {
  RouterConfig cfg;
  cfg.type = hw::RouterType::kLer;
  Rig rig(cfg);
  rig.router().routing().program_ingress_prefix(
      *mpls::Prefix::parse("10.0.0.0/8"), 55, 0);

  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.3.2.1");
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 1);
  EXPECT_EQ(rig.router().stats().slow_path_retries, 1u);
  EXPECT_EQ(rig.sink().last.stack.top().label, 55u);

  // Second packet to the same destination: fast path.
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 2);
  EXPECT_EQ(rig.router().stats().slow_path_retries, 1u);
}

TEST(Router, LsrDoesNotTakeTheSlowPath) {
  Rig rig;  // default type is LSR
  rig.router().routing().program_ingress_prefix(
      *mpls::Prefix::parse("10.0.0.0/8"), 55, 0);
  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.3.2.1");
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.router().stats().discarded, 1u);
  EXPECT_EQ(rig.router().stats().slow_path_retries, 0u);
}

TEST(Router, MalformedPacketCounted) {
  Rig rig;
  mpls::Packet p;
  // Oversize shim claim: corrupt by hand-building a stack deeper than
  // the wire format supports is impossible through the API, so corrupt
  // the payload length contract instead: wire_round_trip_ok() is
  // exercised via a packet whose stack was built with mismatched S bits
  // through direct manipulation.  Easiest honest trigger: a payload too
  // large for the 16-bit length field.
  p.payload.assign(70000, 1);
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.router().stats().malformed, 1u);
  EXPECT_EQ(rig.router().stats().discarded, 0u);
}

TEST(Router, WireValidationCanBeDisabled) {
  RouterConfig cfg;
  cfg.validate_wire = false;
  Rig rig(cfg);
  mpls::Packet p;
  p.payload.assign(70000, 1);
  rig.net.inject(rig.router_id, p);
  rig.net.run();
  EXPECT_EQ(rig.router().stats().malformed, 0u);
  EXPECT_EQ(rig.router().stats().discarded, 1u) << "fails later instead";
}

TEST(Router, PacketTapSeesBeforeAndAfter) {
  Rig rig;
  rig.router().routing().program_swap(2, 40, 77, 0);
  int taps = 0;
  rig.router().set_packet_tap([&](const EmbeddedRouter& r,
                                  const mpls::Packet& before,
                                  const mpls::Packet& after, LabelOp op,
                                  bool discarded) {
    ++taps;
    EXPECT_EQ(r.name(), "R");
    EXPECT_EQ(before.stack.top().label, 40u);
    EXPECT_EQ(after.stack.top().label, 77u);
    EXPECT_EQ(op, LabelOp::kSwap);
    EXPECT_FALSE(discarded);
  });
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  EXPECT_EQ(taps, 1);
}

TEST(Router, EngineSerialisesBackToBackPackets) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;  // 1 us per cycle: swap = 14 us of engine time
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  // Three packets injected at t=0 contend for the single datapath.
  for (int i = 0; i < 3; ++i) {
    rig.net.inject(rig.router_id, labeled(40));
  }
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 3);
  // Last packet waits 2 x 14 us, processes for 14 us: leaves at 42 us.
  EXPECT_NEAR(rig.sink().arrival_time, 42e-6, 2e-6);
  EXPECT_EQ(rig.router().stats().engine_queue_peak, 2u);
  EXPECT_NEAR(rig.router().stats().engine_wait_time, 14e-6 + 28e-6, 2e-6);
}

TEST(Router, ParallelEngineOptionRemovesContention) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;
  cfg.serialize_engine = false;
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  for (int i = 0; i < 3; ++i) {
    rig.net.inject(rig.router_id, labeled(40));
  }
  rig.net.run();
  EXPECT_EQ(rig.sink().count, 3);
  EXPECT_NEAR(rig.sink().arrival_time, 14e-6, 2e-6)
      << "all three processed concurrently in the idealised mode";
  EXPECT_EQ(rig.router().stats().engine_queue_peak, 0u);
}

TEST(Router, EngineQueueOverrunDrops) {
  RouterConfig cfg;
  cfg.clock_hz = 1e6;
  cfg.engine_queue_capacity = 2;
  Rig rig(cfg);
  rig.router().routing().program_swap(2, 40, 77, 0);
  for (int i = 0; i < 6; ++i) {
    rig.net.inject(rig.router_id, labeled(40));
  }
  rig.net.run();
  // 1 in service + 2 queued survive; 3 overrun.
  EXPECT_EQ(rig.sink().count, 3);
  EXPECT_EQ(rig.router().stats().engine_overruns, 3u);
}

TEST(Router, StatsCycleAccounting) {
  Rig rig;
  rig.router().routing().program_swap(2, 40, 77, 0);
  rig.net.inject(rig.router_id, labeled(40));
  rig.net.run();
  EXPECT_EQ(rig.router().stats().engine_cycles, hw::update_swap_cycles(1));
  EXPECT_EQ(rig.router().stats().received, 1u);
}

TEST(Router, BacklogDrainsThroughBatchesOnAShardedEngine) {
  // 12 simultaneous arrivals at a sharded router with batch=4: the
  // first packet enters the engine alone, the backlog then drains in
  // batches through update_batch, and nothing is lost or reordered
  // within the (single) flow.
  net::Network net;
  RouterConfig cfg;
  cfg.engine_batch_size = 4;
  auto r = std::make_unique<EmbeddedRouter>(
      "R", std::make_unique<sw::ShardedEngine>(2), cfg);
  const auto router_id = net.add_node(std::move(r));
  const auto sink_id = net.add_node(std::make_unique<SinkNode>("sink"));
  net.connect(router_id, sink_id, 1e9, 0.0);
  auto& router = net.node_as<EmbeddedRouter>(router_id);

  router.routing().program_swap(2, 40, 77, 0);
  for (int i = 0; i < 12; ++i) {
    auto p = labeled(40);
    p.id = static_cast<std::uint64_t>(i);
    net.inject(router_id, p);
  }
  net.run();

  const auto& stats = router.stats();
  EXPECT_EQ(stats.received, 12u);
  EXPECT_EQ(stats.forwarded, 12u);
  EXPECT_EQ(stats.engine_overruns, 0u);
  EXPECT_GT(stats.engine_batches, 0u);
  EXPECT_GT(stats.engine_batched_packets, 0u);
  // 1 served alone + the rest in batches of <= 4.
  EXPECT_LE(stats.engine_batches,
            (stats.engine_batched_packets + 3) / 4 + 1);
  EXPECT_EQ(net.node_as<SinkNode>(sink_id).count, 12);
  EXPECT_GT(stats.engine_cycles, 0u);
}

// The sharded engine's makespan sets the router's batch latency.  Two
// flows whose labels sit on different datapaths queue at t=0: the
// first packet enters the engine alone, then each batch of 8 holds the
// engine for its slowest datapath's cycle sum.  With one datapath that
// is the serial sum, so two datapaths drain the same backlog sooner.
TEST(Router, ShardedBatchHoldsTheEngineForItsSlowestDatapath) {
  const auto drain = [](unsigned shards, rtl::u32 a, rtl::u32 b) {
    net::Network net;
    RouterConfig cfg;
    cfg.clock_hz = 1e6;  // 1 us per cycle
    cfg.engine_batch_size = 8;
    auto engine = std::make_unique<sw::ShardedEngine>(shards);
    const sw::ShardedEngine& model = *engine;
    const auto router_id = net.add_node(
        std::make_unique<EmbeddedRouter>("R", std::move(engine), cfg));
    const auto sink_id = net.add_node(std::make_unique<SinkNode>("sink"));
    // A fast link: the last batch's 7 transmissions add about 1 ns,
    // far below the 1 us cycle.
    net.connect(router_id, sink_id, 1e12, 0.0);
    auto& router = net.node_as<EmbeddedRouter>(router_id);
    router.routing().program_swap(2, a, 77, 0);  // entry 1
    router.routing().program_swap(2, b, 78, 0);  // entry 2
    const rtl::u64 cycles_a = hw::update_swap_cycles(1);
    const rtl::u64 cycles_b = hw::update_swap_cycles(2);

    std::vector<rtl::u32> labels;
    for (int i = 0; i < 16; ++i) {
      labels.push_back(i % 2 == 0 ? a : b);
      net.inject(router_id, labeled(labels.back()));
    }
    net.run();
    EXPECT_EQ(net.node_as<SinkNode>(sink_id).count, 16);

    // The makespan model: packet 0 alone, then batches 1..8 and 9..15.
    rtl::u64 want = cycles_a;
    for (std::size_t first = 1; first < labels.size(); first += 8) {
      std::vector<rtl::u64> loads(shards, 0);
      for (std::size_t i = first; i < std::min(first + 8, labels.size());
           ++i) {
        loads[model.shard_of(2, labels[i])] +=
            labels[i] == a ? cycles_a : cycles_b;
      }
      want += *std::max_element(loads.begin(), loads.end());
    }
    const double arrival = net.node_as<SinkNode>(sink_id).arrival_time;
    EXPECT_NEAR(arrival, static_cast<double>(want) * 1e-6, 1e-8)
        << shards << " datapaths";
    return arrival;
  };

  // Two labels that two datapaths charge apart.
  const sw::ShardedEngine two(2);
  rtl::u32 b = 41;
  while (two.shard_of(2, b) == two.shard_of(2, 40)) {
    ++b;
  }
  const double parallel = drain(2, 40, b);
  const double serial = drain(1, 40, b);
  EXPECT_LT(parallel, serial);
}

}  // namespace
}  // namespace empls::core
