// End-to-end integration: network + control plane + embedded routers.
//
// Builds the paper's Figure 2 scenario — layer-2 traffic enters an
// ingress LER, crosses LSRs on a label switched path, and exits at an
// egress LER — and checks delivery, label behaviour and TTL accounting
// for both the analytic linear engine and the cycle-accurate RTL engine.
#include <gtest/gtest.h>

#include <memory>

#include "core/embedded_router.hpp"
#include "net/ldp.hpp"
#include "net/network.hpp"
#include "net/stats.hpp"
#include "net/traffic.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"

namespace empls {
namespace {

using core::EmbeddedRouter;
using core::RouterConfig;
using net::ControlPlane;
using net::Network;
using net::NodeId;

enum class EngineKind { kLinear, kHwRtl };

std::unique_ptr<sw::LabelEngine> make_engine(EngineKind kind) {
  if (kind == EngineKind::kHwRtl) {
    return std::make_unique<sw::HwEngine>();
  }
  return std::make_unique<sw::LinearEngine>();
}

NodeId add_router(Network& net, ControlPlane& cp, const std::string& name,
                  hw::RouterType type, EngineKind kind) {
  RouterConfig cfg;
  cfg.type = type;
  auto router =
      std::make_unique<EmbeddedRouter>(name, make_engine(kind), cfg);
  EmbeddedRouter* raw = router.get();
  const NodeId id = net.add_node(std::move(router));
  cp.register_router(id, &raw->routing());
  return id;
}

struct Testbed {
  Network net;
  ControlPlane cp{net};
  net::FlowStats stats;
  NodeId ler_a, lsr_b, lsr_c, ler_d;

  explicit Testbed(EngineKind kind) {
    ler_a = add_router(net, cp, "LER-A", hw::RouterType::kLer, kind);
    lsr_b = add_router(net, cp, "LSR-B", hw::RouterType::kLsr, kind);
    lsr_c = add_router(net, cp, "LSR-C", hw::RouterType::kLsr, kind);
    ler_d = add_router(net, cp, "LER-D", hw::RouterType::kLer, kind);
    // 100 Mb/s links, 1 ms propagation.
    net.connect(ler_a, lsr_b, 100e6, 1e-3);
    net.connect(lsr_b, lsr_c, 100e6, 1e-3);
    net.connect(lsr_c, ler_d, 100e6, 1e-3);
    net.set_delivery_handler([this](NodeId, const mpls::Packet& p) {
      stats.on_delivered(p, net.now());
      last_delivered = p;
    });
  }

  EmbeddedRouter& router(NodeId id) {
    return net.node_as<EmbeddedRouter>(id);
  }

  mpls::Packet last_delivered;
};

class EndToEnd : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EndToEnd, CbrFlowCrossesTheLsp) {
  Testbed tb(GetParam());
  const auto lsp = tb.cp.establish_lsp(
      {tb.ler_a, tb.lsr_b, tb.lsr_c, tb.ler_d},
      *mpls::Prefix::parse("10.2.0.0/16"));
  ASSERT_TRUE(lsp.has_value());

  net::FlowSpec spec;
  spec.flow_id = 7;
  spec.ingress = tb.ler_a;
  spec.src = *mpls::Ipv4Address::parse("192.168.1.1");
  spec.dst = *mpls::Ipv4Address::parse("10.2.0.5");
  spec.cos = 5;
  spec.payload_bytes = 160;
  spec.start = 0.0;
  spec.stop = 0.199;  // emits at 0, 20ms, ..., 180ms: exactly 10 packets
  net::CbrSource voip(tb.net, spec, &tb.stats, /*interval=*/20e-3);
  voip.start();
  tb.net.run();

  const auto& flow = tb.stats.flow(7);
  EXPECT_EQ(flow.sent, 10u);
  EXPECT_EQ(flow.delivered, 10u);
  EXPECT_EQ(flow.loss_rate(), 0.0);

  // Delivered packets left the MPLS domain unlabeled, with the TTL
  // decremented once per router (4 routers).
  EXPECT_TRUE(tb.last_delivered.stack.empty());
  EXPECT_EQ(tb.last_delivered.ip_ttl, 64 - 4);
  EXPECT_EQ(tb.last_delivered.cos, 5);

  // Operation accounting: ingress pushes, transits swap, egress pops.
  EXPECT_EQ(tb.router(tb.ler_a).stats().pushes, 10u);
  EXPECT_EQ(tb.router(tb.lsr_b).stats().swaps, 10u);
  EXPECT_EQ(tb.router(tb.lsr_c).stats().swaps, 10u);
  EXPECT_EQ(tb.router(tb.ler_d).stats().pops, 10u);

  // The first packet took the slow path (FEC prefix → exact install);
  // the rest hit the installed hardware entry.
  EXPECT_EQ(tb.router(tb.ler_a).stats().slow_path_retries, 1u);
  EXPECT_EQ(tb.router(tb.ler_a).routing().slow_path_installs(), 1u);

  // End-to-end latency exceeds the 3 ms propagation floor.
  EXPECT_GT(flow.latency.min(), 3e-3);
  EXPECT_LT(flow.latency.max(), 4e-3);
}

TEST_P(EndToEnd, UnroutablePacketIsDiscarded) {
  Testbed tb(GetParam());
  tb.cp.establish_lsp({tb.ler_a, tb.lsr_b, tb.lsr_c, tb.ler_d},
                      *mpls::Prefix::parse("10.2.0.0/16"));

  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("172.16.0.1");  // no FEC covers this
  p.flow_id = 1;
  tb.net.inject(tb.ler_a, p);
  tb.net.run();

  EXPECT_EQ(tb.stats.total_delivered(), 0u);
  EXPECT_EQ(tb.router(tb.ler_a).stats().discarded, 1u);
}

TEST_P(EndToEnd, TtlExpiryDiscardsInTransit) {
  Testbed tb(GetParam());
  tb.cp.establish_lsp({tb.ler_a, tb.lsr_b, tb.lsr_c, tb.ler_d},
                      *mpls::Prefix::parse("10.2.0.0/16"));

  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.2.0.5");
  p.ip_ttl = 2;  // survives the ingress push, expires at the first swap
  tb.net.inject(tb.ler_a, p);
  tb.net.run();

  EXPECT_EQ(tb.stats.total_delivered(), 0u);
  EXPECT_EQ(tb.router(tb.lsr_b).stats().discarded, 1u);
}

TEST_P(EndToEnd, TunnelCarriesTheLspThroughNestedLabels) {
  Testbed tb(GetParam());
  // Tunnel B→C needs an interior node: add one.
  const NodeId lsr_x =
      add_router(tb.net, tb.cp, "LSR-X", hw::RouterType::kLsr, GetParam());
  tb.net.connect(tb.lsr_b, lsr_x, 100e6, 1e-3);
  tb.net.connect(lsr_x, tb.lsr_c, 100e6, 1e-3);

  const auto tunnel =
      tb.cp.establish_tunnel({tb.lsr_b, lsr_x, tb.lsr_c});
  ASSERT_TRUE(tunnel.has_value());
  const auto lsp = tb.cp.establish_lsp_via_tunnel(
      {tb.ler_a, tb.lsr_b}, *tunnel, {tb.lsr_c, tb.ler_d},
      *mpls::Prefix::parse("10.9.0.0/16"));
  ASSERT_TRUE(lsp.has_value());

  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.9.1.1");
  p.flow_id = 3;
  p.created_at = 0.0;
  tb.stats.on_sent(p);
  tb.net.inject(tb.ler_a, p);
  tb.net.run();

  EXPECT_EQ(tb.stats.flow(3).delivered, 1u);
  EXPECT_TRUE(tb.last_delivered.stack.empty());
  // Path: A(push) B(push outer) X(pop outer, PHP) C(swap) D(pop):
  // 5 router visits → TTL down by 5.
  EXPECT_EQ(tb.last_delivered.ip_ttl, 64 - 5);
  // The tunnel entry pushed a second label at B.
  EXPECT_EQ(tb.router(tb.lsr_b).stats().pushes, 1u);
  EXPECT_EQ(tb.net.node_as<EmbeddedRouter>(lsr_x).stats().pops, 1u);
}

TEST_P(EndToEnd, PhpDeliversThroughTheUnlabeledLastHop) {
  Testbed tb(GetParam());
  net::LspOptions options;
  options.php = true;
  const auto lsp = tb.cp.establish_lsp(
      {tb.ler_a, tb.lsr_b, tb.lsr_c, tb.ler_d},
      *mpls::Prefix::parse("10.2.0.0/16"), options);
  ASSERT_TRUE(lsp.has_value());

  mpls::Packet p;
  p.dst = *mpls::Ipv4Address::parse("10.2.0.5");
  p.flow_id = 4;
  tb.stats.on_sent(p);
  tb.net.inject(tb.ler_a, p);
  tb.net.run();

  EXPECT_EQ(tb.stats.flow(4).delivered, 1u);
  EXPECT_TRUE(tb.last_delivered.stack.empty());
  // A pushes, B swaps, C pops (PHP), D delivers without touching the
  // engine: 3 TTL decrements, not 4.
  EXPECT_EQ(tb.last_delivered.ip_ttl, 64 - 3);
  EXPECT_EQ(tb.router(tb.lsr_c).stats().pops, 1u);
  EXPECT_EQ(tb.router(tb.ler_d).stats().pops, 0u);
  EXPECT_EQ(tb.router(tb.ler_d).stats().delivered_local, 1u);
}

TEST_P(EndToEnd, FailureThenRerouteRestoresDelivery) {
  Testbed tb(GetParam());
  // Add a protection path B -> X -> C.
  const NodeId lsr_x =
      add_router(tb.net, tb.cp, "LSR-X", hw::RouterType::kLsr, GetParam());
  tb.net.connect(tb.lsr_b, lsr_x, 100e6, 2e-3);
  tb.net.connect(lsr_x, tb.lsr_c, 100e6, 2e-3);

  const auto lsp = tb.cp.establish_lsp(
      {tb.ler_a, tb.lsr_b, tb.lsr_c, tb.ler_d},
      *mpls::Prefix::parse("10.2.0.0/16"));
  ASSERT_TRUE(lsp.has_value());

  auto send_one = [&](std::uint32_t flow) {
    mpls::Packet p;
    p.dst = *mpls::Ipv4Address::parse("10.2.0.5");
    p.flow_id = flow;
    p.created_at = tb.net.now();
    tb.stats.on_sent(p);
    tb.net.inject(tb.ler_a, p);
    tb.net.run();
  };

  send_one(1);
  EXPECT_EQ(tb.stats.flow(1).delivered, 1u) << "working before the failure";

  // Cut the primary core link: traffic is blackholed at the link.
  tb.net.set_connection_up(tb.lsr_b, tb.lsr_c, false);
  send_one(2);
  EXPECT_EQ(tb.stats.has_flow(2) ? tb.stats.flow(2).delivered : 0u, 0u);

  // Restoration: the control plane reroutes the LSP over B-X-C.
  const auto replacement = tb.cp.reroute_lsp(*lsp);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_EQ(tb.cp.lsp(*replacement).path,
            (std::vector<net::NodeId>{tb.ler_a, tb.lsr_b, lsr_x, tb.lsr_c,
                                      tb.ler_d}));
  send_one(3);
  EXPECT_EQ(tb.stats.flow(3).delivered, 1u) << "restored after reroute";
  EXPECT_TRUE(tb.last_delivered.stack.empty());
  EXPECT_EQ(tb.last_delivered.ip_ttl, 64 - 5) << "one extra hop now";
}

TEST_P(EndToEnd, MergedIngressesShareTheTail) {
  Testbed tb(GetParam());
  // Second ingress LER attached to LSR-B.
  const NodeId ler_e =
      add_router(tb.net, tb.cp, "LER-E", hw::RouterType::kLer, GetParam());
  tb.net.connect(ler_e, tb.lsr_b, 100e6, 1e-3);

  const auto fec = *mpls::Prefix::parse("10.2.0.0/16");
  ASSERT_TRUE(
      tb.cp.establish_lsp({tb.ler_a, tb.lsr_b, tb.lsr_c, tb.ler_d}, fec));
  net::LspOptions options;
  options.allow_merge = true;
  const auto merged = tb.cp.establish_lsp({ler_e, tb.lsr_b, tb.lsr_c,
                                           tb.ler_d},
                                          fec, options);
  ASSERT_TRUE(merged.has_value());
  ASSERT_TRUE(tb.cp.lsp(*merged).merged_at.has_value());

  // Traffic from BOTH ingresses reaches the egress.
  for (std::uint32_t flow : {1u, 2u}) {
    mpls::Packet p;
    p.dst = *mpls::Ipv4Address::parse("10.2.0.5");
    p.flow_id = flow;
    p.created_at = tb.net.now();
    tb.stats.on_sent(p);
    tb.net.inject(flow == 1 ? tb.ler_a : ler_e, p);
    tb.net.run();
  }
  EXPECT_EQ(tb.stats.flow(1).delivered, 1u);
  EXPECT_EQ(tb.stats.flow(2).delivered, 1u);
  // The shared LSR swapped for both packets from one table entry.
  EXPECT_EQ(tb.router(tb.lsr_b).stats().swaps, 2u);
  EXPECT_EQ(tb.router(tb.lsr_b).engine().level_size(2), 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, EndToEnd,
                         ::testing::Values(EngineKind::kLinear,
                                           EngineKind::kHwRtl),
                         [](const auto& info) {
                           return info.param == EngineKind::kHwRtl
                                      ? "HwRtl"
                                      : "Linear";
                         });

}  // namespace
}  // namespace empls
