// Tests for open-loop traffic generation at scale: arrival processes,
// Pareto flow churn over flat slots, and exact flow conservation
// through the FlowLedger + DropAccountant pair.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/embedded_router.hpp"
#include "net/fault_injector.hpp"
#include "net/ldp.hpp"
#include "net/loadgen.hpp"
#include "sw/linear_engine.hpp"

namespace empls::net {
namespace {

struct Rig {
  Network net;
  ControlPlane cp{net};
  FlowLedger ledger;
  DropAccountant drops{net};
  NodeId ler, egress;

  explicit Rig(double link_bps = 100e6) {
    auto add = [&](const char* name, hw::RouterType type) {
      core::RouterConfig cfg;
      cfg.type = type;
      auto r = std::make_unique<core::EmbeddedRouter>(
          name, std::make_unique<sw::LinearEngine>(), cfg);
      auto* raw = r.get();
      const auto id = net.add_node(std::move(r));
      cp.register_router(id, &raw->routing());
      return id;
    };
    ler = add("LER", hw::RouterType::kLer);
    egress = add("EGR", hw::RouterType::kLer);
    net.connect(ler, egress, link_bps, 1e-3);
    cp.establish_lsp({ler, egress}, *mpls::Prefix::parse("10.1.0.0/16"));
    net.set_delivery_handler([this](NodeId, const mpls::Packet& p) {
      ledger.on_delivered(p.flow_id, net.now() - p.created_at);
    });
  }

  LoadGenConfig base_config() const {
    LoadGenConfig cfg;
    cfg.ingress = ler;
    cfg.dst = *mpls::Ipv4Address::parse("10.1.0.5");
    cfg.rate_pps = 5000;
    cfg.concurrent_flows = 64;
    cfg.seed = 7;
    cfg.stop = 1.0;
    return cfg;
  }
};

TEST(OpenLoopGenerator, PoissonOfferedLoadMatchesTheRate) {
  Rig rig;
  OpenLoopGenerator gen(rig.net, rig.base_config(), &rig.ledger);
  gen.start();
  rig.net.run();
  // 5000 pps over 1 s; Poisson sd is ~70, so ±10% is generous.
  EXPECT_GT(gen.stats().packets_sent, 4500u);
  EXPECT_LT(gen.stats().packets_sent, 5500u);
  EXPECT_EQ(gen.stats().packets_sent, rig.ledger.sent_total());
}

TEST(OpenLoopGenerator, SameSeedReproducesTheRunExactly) {
  Rig a;
  Rig b;
  OpenLoopGenerator ga(a.net, a.base_config(), &a.ledger);
  OpenLoopGenerator gb(b.net, b.base_config(), &b.ledger);
  ga.start();
  gb.start();
  a.net.run();
  b.net.run();
  EXPECT_EQ(ga.stats().packets_sent, gb.stats().packets_sent);
  EXPECT_EQ(ga.stats().flows_started, gb.stats().flows_started);
  EXPECT_EQ(ga.stats().flows_completed, gb.stats().flows_completed);
  EXPECT_EQ(a.ledger.delivered_total(), b.ledger.delivered_total());
}

TEST(OpenLoopGenerator, ParetoChurnRecyclesSlotsWithinTheIdBlock) {
  Rig rig;
  auto cfg = rig.base_config();
  cfg.pareto_min_packets = 2;  // mice everywhere → heavy churn
  cfg.pareto_alpha = 2.0;
  OpenLoopGenerator gen(rig.net, cfg, &rig.ledger);
  gen.start();
  rig.net.run();
  // All 64 slots start a flow up front; churn must replace many of them.
  EXPECT_GT(gen.stats().flows_completed, 100u);
  EXPECT_EQ(gen.stats().flows_started,
            gen.stats().flows_completed + cfg.concurrent_flows);
  // Every flow id the ledger saw stays inside the generator's block
  // (4096 ids cover the churn: ≤ ~2500 flows of ≥ 2 packets each).
  std::uint64_t mass = 0;
  for (std::uint32_t f = gen.flow_id_lo(); f < gen.flow_id_lo() + 4096;
       ++f) {
    mass += rig.ledger.sent(f);
  }
  EXPECT_EQ(mass, rig.ledger.sent_total())
      << "ids escaped the generator's block";
}

TEST(OpenLoopGenerator, MmppModulatesBetweenBaseAndBurst) {
  Rig rig;
  auto cfg = rig.base_config();
  cfg.arrivals = LoadGenConfig::Arrivals::kMmpp;
  cfg.rate_pps = 2000;
  cfg.burst_rate_pps = 20000;
  cfg.mean_sojourn = 50e-3;
  OpenLoopGenerator gen(rig.net, cfg, &rig.ledger);
  gen.start();
  rig.net.run();
  EXPECT_GT(gen.stats().state_switches, 5u) << "~20 sojourns in 1 s";
  // Mean rate sits strictly between the two states (≈11 kpps here).
  EXPECT_GT(gen.stats().packets_sent, 3000u);
  EXPECT_LT(gen.stats().packets_sent, 20000u);
}

TEST(OpenLoopGenerator, ConservationHoldsExactlyThroughCongestion) {
  Rig rig(2e6);  // 2 Mb/s link: ~11 kpps offered over ~1.4 kpps drained
  auto cfg = rig.base_config();
  cfg.rate_pps = 11000;
  OpenLoopGenerator gen(rig.net, cfg, &rig.ledger);
  gen.start();
  rig.net.run();
  EXPECT_GT(rig.drops.total(), 0u) << "the link must actually congest";
  EXPECT_LT(rig.ledger.delivered_total(), rig.ledger.sent_total());
  // Books balance per flow: sent == delivered + attributed drops.
  EXPECT_TRUE(rig.ledger.conserved(rig.drops));
  EXPECT_EQ(rig.ledger.sent_total(),
            rig.ledger.delivered_total() +
                rig.drops.drops_in_range(kLoadGenFlowBase, kAttackFlowBase));
  // The accountant and the network's per-reason book count the same
  // drops: the queue-full drops reach the first through the link drop
  // hook and the second through the link counters.
  const auto totals = rig.net.drop_totals();
  EXPECT_EQ(rig.drops.total(),
            std::accumulate(totals.begin(), totals.end(), std::uint64_t{0}));
}

TEST(FlowLedger, QuantilesComeFromTheLatencyHistogram) {
  FlowLedger ledger;
  for (int i = 0; i < 90; ++i) {
    ledger.on_delivered(kLoadGenFlowBase, 1e-3);  // 1 ms
  }
  for (int i = 0; i < 10; ++i) {
    ledger.on_delivered(kLoadGenFlowBase, 1.0);  // slow tail
  }
  EXPECT_EQ(ledger.delivered_total(), 100u);
  EXPECT_LT(ledger.latency_quantile_s(0.5), 5e-3);
  EXPECT_GT(ledger.latency_quantile_s(0.999), 0.5);
}

}  // namespace
}  // namespace empls::net
