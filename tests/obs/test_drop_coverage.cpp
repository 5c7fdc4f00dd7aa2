// Coverage audit for the drop-reason taxonomy: every obs::DropReason
// must be producible by the suite — scenarios where the scenario
// language can provoke the cause, direct router rigs for the paths a
// config file cannot reach (malformed wire, inconsistent ops, missing
// next hops, unrecognised reason strings).  A reason nobody can drive
// is either dead taxonomy or an unobservable failure mode; both should
// fail this audit loudly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>

#include "core/embedded_router.hpp"
#include "core/scenario_runner.hpp"
#include "net/network.hpp"
#include "obs/drop_reason.hpp"
#include "sw/linear_engine.hpp"

namespace empls::obs {
namespace {

DropCounts scenario_drops(const std::string& text) {
  auto result = core::ScenarioRunner::run_text(text);
  EXPECT_TRUE(
      std::holds_alternative<core::ScenarioRunner::Report>(result))
      << std::get<net::ScenarioError>(result).message;
  return std::get<core::ScenarioRunner::Report>(result).drops;
}

std::uint64_t at(const DropCounts& c, DropReason r) {
  return c[static_cast<std::size_t>(r)];
}

void merge(DropCounts& into, const DropCounts& c) {
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    into[i] += c[i];
  }
}

// Unguarded data-plane causes: a miss at the ingress (unrouted
// destination), a TTL flood that expires on the slow path, an
// out-of-profile policed flow, a thin link with a tiny CoS queue, and
// a mid-run link cut with traffic still offered.
DropCounts unguarded_misc() {
  return scenario_drops(R"(
qos strict capacity=4
router A ler
router B lsr
router C ler
link A B 1M 1ms
link B C 100M 1ms
lsp 10.1.0.0/16 A B C
flow cbr 1 A 10.9.0.5 interval=5ms stop=0.4s
flow cbr 2 A 10.1.0.5 cos=6 size=1200 interval=0.2ms stop=0.4s
flow cbr 3 A 10.1.0.6 cos=5 interval=1ms stop=0.4s
police A 3 10k
attack ttl_flood 0.05s A rate=2000 for=0.1s seed=7 dst=10.1.0.9
fail 0.2s B C
run 0.5s
)");
}

// Guarded attack campaign: each screen stamps its own reason, and a
// low shed band over a slow engine exercises graceful degradation.
DropCounts guarded_campaign() {
  return scenario_drops(R"(
router LER ler clock=100k
router EGR ler
link LER EGR 100M 1ms
lsp 10.1.0.0/16 LER EGR
flow cbr 1 LER 10.1.0.5 cos=6 interval=1ms stop=0.4s
guard * ttl=100 reprogram=50 shed=0.1 demote=0.05
loadgen poisson LER 10.1.0.0 rate=20000 flows=256 seed=11 stop=0.3s
attack spoof 0.10s LER rate=2000 for=0.15s seed=1
attack reserved 0.12s LER rate=2000 for=0.15s seed=2
attack ttl_flood 0.14s LER rate=2000 for=0.15s seed=3 dst=10.1.0.9
attack exhaust 0.16s LER rate=2000 for=0.15s seed=4 dst=10.1.0.1
run 0.6s
)");
}

// No guard in front of a slow engine: arrivals past the queue capacity
// hit the hard overrun.
DropCounts saturated_engine() {
  return scenario_drops(R"(
router LER ler clock=100k
router EGR ler
link LER EGR 100M 1ms
lsp 10.1.0.0/16 LER EGR
loadgen poisson LER 10.1.0.0 rate=20000 flows=256 seed=5 stop=0.3s
run 0.5s
)");
}

// Direct rig for the causes a scenario cannot reach.
struct Rig {
  net::Network net;
  net::NodeId router_id;
  net::NodeId sink_id;

  Rig() {
    router_id = net.add_node(std::make_unique<core::EmbeddedRouter>(
        "R", std::make_unique<sw::LinearEngine>(), core::RouterConfig{}));
    sink_id = net.add_node(std::make_unique<core::EmbeddedRouter>(
        "S", std::make_unique<sw::LinearEngine>(), core::RouterConfig{}));
    net.connect(router_id, sink_id, 1e9, 0.0);
  }
  core::EmbeddedRouter& router() {
    return net.node_as<core::EmbeddedRouter>(router_id);
  }
};

mpls::Packet labeled(rtl::u32 label, rtl::u8 ttl = 64) {
  mpls::Packet p;
  p.stack.push(mpls::LabelEntry{label, 0, false, ttl});
  return p;
}

DropCounts direct_rig_drops() {
  Rig rig;
  // Malformed wire form: a payload too large for the 16-bit length
  // field fails the round-trip validation at ingress.
  mpls::Packet huge;
  huge.payload.assign(70000, 1);
  rig.net.inject(rig.router_id, huge);
  // Engine success but no programmed next hop: write the pair directly
  // into the engine, bypassing the routing functionality's port map.
  rig.router().engine().write_pair(
      2, mpls::LabelPair{40, 77, mpls::LabelOp::kSwap});
  rig.net.inject(rig.router_id, labeled(40));
  // VERIFY INFO failure: a kNop pair is never a consistent operation.
  rig.router().engine().write_pair(
      2, mpls::LabelPair{41, 0, mpls::LabelOp::kNop});
  rig.net.inject(rig.router_id, labeled(41));
  rig.net.run();
  // The catch-all: a discard with no more specific reason.
  rig.net.notify_discard(rig.router_id, labeled(42), DropReason::kOther);
  return rig.net.drop_totals();
}

TEST(DropCoverage, ScenarioDriversStampTheSpecificReasons) {
  const DropCounts misc = unguarded_misc();
  EXPECT_GT(at(misc, DropReason::kInfoBaseMiss), 0u) << "unrouted dst";
  EXPECT_GT(at(misc, DropReason::kTtlExpired), 0u) << "unguarded ttl flood";
  EXPECT_GT(at(misc, DropReason::kPolicer), 0u) << "out-of-profile flow";
  EXPECT_GT(at(misc, DropReason::kQueueOverflow), 0u) << "thin link";
  EXPECT_GT(at(misc, DropReason::kLinkDown), 0u) << "mid-run cut";

  const DropCounts guarded = guarded_campaign();
  EXPECT_GT(at(guarded, DropReason::kReservedLabel), 0u);
  EXPECT_GT(at(guarded, DropReason::kSpoofedLabel), 0u);
  EXPECT_GT(at(guarded, DropReason::kTtlRateLimited), 0u);
  EXPECT_GT(at(guarded, DropReason::kReprogramRateLimited), 0u);
  EXPECT_GT(at(guarded, DropReason::kOverloadShed), 0u) << "shed band";

  const DropCounts saturated = saturated_engine();
  EXPECT_GT(at(saturated, DropReason::kEngineOverrun), 0u)
      << "unguarded queue cliff";
}

TEST(DropCoverage, DirectRigReachesTheRemainingReasons) {
  const DropCounts rig = direct_rig_drops();
  EXPECT_GT(at(rig, DropReason::kMalformed), 0u);
  EXPECT_GT(at(rig, DropReason::kNoRoute), 0u);
  EXPECT_GT(at(rig, DropReason::kInconsistent), 0u);
  EXPECT_GT(at(rig, DropReason::kOther), 0u);
}

TEST(DropCoverage, EveryReasonInTheTaxonomyIsDriven) {
  DropCounts total{};
  merge(total, unguarded_misc());
  merge(total, guarded_campaign());
  merge(total, saturated_engine());
  merge(total, direct_rig_drops());
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    EXPECT_GT(total[i], 0u)
        << "DropReason '" << to_string(static_cast<DropReason>(i))
        << "' is not driven by any scenario or rig in the suite";
  }
}

}  // namespace
}  // namespace empls::obs
