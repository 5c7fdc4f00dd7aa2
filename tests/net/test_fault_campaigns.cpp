// Mixed fault campaigns (the slow acceptance stress, labelled `slow` in
// ctest): seeded 60-fault campaigns of cuts, flaps, crashes and
// information-base corruptions against a protected, auto-repairing
// network.  No crash, and every flow conserves packets — anything not
// delivered is an accounted drop, nothing vanishes.  Runs once on the
// single-datapath golden engine and once on the sharded parallel plane
// (which must keep the same books while batching through worker
// threads; the TSan CI job runs this file for data-race coverage).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "core/embedded_router.hpp"
#include "net/failure_detector.hpp"
#include "net/fault_injector.hpp"
#include "net/protection.hpp"
#include "net/stats.hpp"
#include "net/traffic.hpp"
#include "sw/cam_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/sharded_engine.hpp"

namespace empls::net {
namespace {

mpls::Prefix pfx(const char* t) { return *mpls::Prefix::parse(t); }

/// Both drop books count every drop once: router discards reach the
/// accountant and drop_totals() through notify_discard, link drops reach
/// the accountant through the drop hook and drop_totals() through the
/// link counters.  A drop site feeding only one of them breaks this.
void expect_drop_books_agree(const Network& net, const DropAccountant& drops) {
  const auto totals = net.drop_totals();
  EXPECT_EQ(drops.total(),
            std::accumulate(totals.begin(), totals.end(), std::uint64_t{0}));
}

struct Rig {
  Network net;
  ControlPlane cp{net};
  FlowStats stats;

  /// `shards` == 0: the LinearEngine golden model, per-packet service.
  /// `shards` >= 1: ShardedEngine with batched engine service.
  NodeId add_router(const char* name, hw::RouterType type, unsigned shards,
                    std::size_t batch) {
    core::RouterConfig cfg;
    cfg.type = type;
    std::unique_ptr<sw::LabelEngine> engine;
    if (shards == 0) {
      engine = std::make_unique<sw::LinearEngine>();
    } else {
      engine = std::make_unique<sw::ShardedEngine>(shards);
      cfg.engine_batch_size = batch;
    }
    auto r = std::make_unique<core::EmbeddedRouter>(name, std::move(engine),
                                                    cfg);
    auto* raw = r.get();
    const auto id = net.add_node(std::move(r));
    cp.register_router(id, &raw->routing());
    return id;
  }

  /// Router backed by a named software engine (the corruption campaign
  /// runs across all of them).
  NodeId add_router_engine(const char* name, hw::RouterType type,
                           const std::string& kind) {
    core::RouterConfig cfg;
    cfg.type = type;
    std::unique_ptr<sw::LabelEngine> engine;
    if (kind == "cam") {
      engine = std::make_unique<sw::CamEngine>();
    } else {
      engine = std::make_unique<sw::LinearEngine>();
    }
    auto r = std::make_unique<core::EmbeddedRouter>(name, std::move(engine),
                                                    cfg);
    auto* raw = r.get();
    const auto id = net.add_node(std::move(r));
    cp.register_router(id, &raw->routing());
    return id;
  }

  void deliver_into_stats() {
    net.set_delivery_handler([this](NodeId, const mpls::Packet& p) {
      stats.on_delivered(p, net.now());
    });
  }
};

class FaultCampaign : public ::testing::TestWithParam<unsigned> {};

// The acceptance stress: a seeded mixed campaign of >= 50 faults (cuts,
// flaps, crashes, corruptions) against a protected, auto-repairing
// six-router network with a detour plane.
TEST_P(FaultCampaign, SixtyFaultCampaignConservesEveryFlow) {
  const unsigned shards = GetParam();
  Rig rig;
  const auto a = rig.add_router("A", hw::RouterType::kLer, shards, 8);
  const auto b = rig.add_router("B", hw::RouterType::kLsr, shards, 8);
  const auto c = rig.add_router("C", hw::RouterType::kLsr, shards, 8);
  const auto d = rig.add_router("D", hw::RouterType::kLsr, shards, 8);
  const auto e = rig.add_router("E", hw::RouterType::kLsr, shards, 8);
  const auto f = rig.add_router("F", hw::RouterType::kLer, shards, 8);
  rig.net.connect(a, b, 100e6, 1e-3);
  rig.net.connect(b, c, 100e6, 1e-3);  // primary core
  rig.net.connect(c, f, 100e6, 1e-3);
  rig.net.connect(b, d, 100e6, 2e-3);  // detour plane
  rig.net.connect(d, c, 100e6, 2e-3);
  rig.net.connect(d, e, 100e6, 2e-3);
  rig.net.connect(e, c, 100e6, 2e-3);
  rig.deliver_into_stats();

  const auto lsp1 = rig.cp.establish_lsp({a, b, c, f}, pfx("10.1.0.0/16"));
  const auto lsp2 = rig.cp.establish_lsp({f, c, b, a}, pfx("10.2.0.0/16"));
  ASSERT_TRUE(lsp1.has_value());
  ASSERT_TRUE(lsp2.has_value());
  EXPECT_GT(rig.cp.protect_lsp(*lsp1), 0u);
  EXPECT_GT(rig.cp.protect_lsp(*lsp2), 0u);

  DropAccountant drops(rig.net);
  FailureDetector detector(rig.net, rig.cp, 10e-3, 3);
  detector.watch_all();
  ProtectionManager protection(rig.net, rig.cp);
  protection.attach_fast_signal();
  protection.arm(detector);
  detector.start(1.3);

  FlowSpec fwd{1, a, mpls::Ipv4Address{1},
               *mpls::Ipv4Address::parse("10.1.0.5"), 6, 100, 0.0, 1.1999};
  FlowSpec rev{2, f, mpls::Ipv4Address{2},
               *mpls::Ipv4Address::parse("10.2.0.5"), 6, 100, 0.0, 1.1999};
  CbrSource flow1(rig.net, fwd, &rig.stats, 1e-3);
  CbrSource flow2(rig.net, rev, &rig.stats, 1e-3);
  flow1.start();
  flow2.start();

  FaultInjector injector(rig.net, rig.cp);
  const auto campaign =
      injector.generate_campaign(/*seed=*/42, /*count=*/60,
                                 /*start=*/0.05, /*horizon=*/1.0,
                                 detector.detection_time());
  ASSERT_GE(campaign.size(), 50u);
  unsigned cuts = 0;
  unsigned flaps = 0;
  unsigned crashes = 0;
  unsigned corruptions = 0;
  for (const auto& spec : campaign) {
    cuts += spec.kind == FaultKind::kCut ? 1 : 0;
    flaps += spec.kind == FaultKind::kFlap ? 1 : 0;
    crashes += spec.kind == FaultKind::kCrash ? 1 : 0;
    corruptions += spec.kind == FaultKind::kCorrupt ? 1 : 0;
  }
  EXPECT_GT(cuts, 0u);
  EXPECT_GT(flaps, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(corruptions, 0u);
  injector.schedule_campaign(campaign);

  rig.net.run();  // survive the whole campaign without crashing

  for (const auto& rec : injector.records()) {
    EXPECT_TRUE(rec.injected);
    if (rec.spec.duration > 0) {
      EXPECT_TRUE(rec.cleared);
    }
  }

  // The books must balance for every flow — a packet that is neither
  // delivered nor in the drop ledger is a simulator bug.
  EXPECT_TRUE(drops.conserved(rig.stats)) << injector.summary();
  expect_drop_books_agree(rig.net, drops);
  for (const auto flow_id : {1u, 2u}) {
    const auto& flow = rig.stats.flow(flow_id);
    EXPECT_EQ(flow.sent, flow.delivered + drops.drops(flow_id));
    EXPECT_GT(flow.delivered, 0u);
  }
}

// Corruption faults must bite on EVERY software engine: corrupt_entry
// has engine-specific implementations (key-lane scan for linear,
// inner-delegate for cam), and a silent no-op would make the
// resilience results for that engine vacuously clean.  Each
// engine must (a) actually garble the binding, (b) misroute or drop
// because of it, and (c) be healed by the resync audit, after which the
// flow recovers.
class CorruptionByEngine : public ::testing::TestWithParam<const char*> {};

TEST_P(CorruptionByEngine, CorruptionBitesAndResyncHeals) {
  const std::string kind = GetParam();
  Rig rig;
  const auto a = rig.add_router_engine("A", hw::RouterType::kLer, kind);
  const auto b = rig.add_router_engine("B", hw::RouterType::kLsr, kind);
  const auto c = rig.add_router_engine("C", hw::RouterType::kLer, kind);
  rig.net.connect(a, b, 100e6, 1e-3);
  rig.net.connect(b, c, 100e6, 1e-3);
  rig.deliver_into_stats();

  ASSERT_TRUE(rig.cp.establish_lsp({a, b, c}, pfx("10.1.0.0/16")));

  DropAccountant drops(rig.net);
  FlowSpec spec{1, a, mpls::Ipv4Address{1},
                *mpls::Ipv4Address::parse("10.1.0.5"), 6, 100, 0.0, 0.5};
  CbrSource flow(rig.net, spec, &rig.stats, 1e-3);
  flow.start();

  // Garble a binding in the transit LSR's information base at 100 ms;
  // the audit-and-repair pass runs 50 ms later.
  FaultInjector injector(rig.net, rig.cp);
  injector.inject(FaultSpec{FaultKind::kCorrupt, 0.1, b, 0,
                            /*duration=resync*/ 0.05, /*salt=*/1});
  rig.net.run();

  ASSERT_EQ(injector.records().size(), 1u);
  const auto& rec = injector.records().front();
  EXPECT_TRUE(rec.injected);
  EXPECT_TRUE(rec.corrupted) << kind << ": corrupt_entry found no binding";
  EXPECT_GE(rec.resynced, 1u) << kind << ": audit repaired nothing";

  // The garbled label misdelivers or drops real packets until the
  // resync, and traffic flows again afterwards — books stay balanced.
  const auto& f = rig.stats.flow(1);
  EXPECT_LT(f.delivered, f.sent);
  EXPECT_GT(f.delivered, 400u);  // recovered after the 50 ms outage
  EXPECT_TRUE(drops.conserved(rig.stats)) << injector.summary();
  expect_drop_books_agree(rig.net, drops);
}

INSTANTIATE_TEST_SUITE_P(Engines, CorruptionByEngine,
                         ::testing::Values("linear", "cam"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// shards == 0 is the LinearEngine baseline; 1 / 4 exercise the sharded
// plane's quiesce-under-reprogramming path (every corruption resync and
// protection switch reprograms information bases mid-traffic).
INSTANTIATE_TEST_SUITE_P(Engines, FaultCampaign,
                         ::testing::Values(0u, 1u, 4u),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("linear")
                                      : "sharded" +
                                            std::to_string(info.param);
                         });

}  // namespace
}  // namespace empls::net
