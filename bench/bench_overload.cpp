// Overload survival: saturation sweep, adversarial containment, and a
// sustained conservation run.
//
// Three parts:
//
//   1. Load sweep — open-loop Poisson arrivals walked from light load
//      past the saturation knee of a two-router LSP; each point reports
//      goodput and delivery-latency p99/p999 from the flow ledger's HDR
//      histogram.  The knee is the highest offered load that still
//      delivers >= 95% of what was sent.
//   2. Containment campaigns — the four survey attacks (spoof,
//      ttl_flood, reserved, exhaust) against a guarded router carrying
//      a victim load.  Gates: victim goodput stays within 5% of the
//      attack-free baseline, victim p999 stays bounded, and every
//      attack packet is attributed — delivered + accounted drops equals
//      injected, with spoof/reserved attributed to their specific new
//      drop reasons.
//   3. Sustained run — >= 10M open-loop packets (--quick: 1M) driven at
//      ~7x the bottleneck capacity: exact flow conservation over every
//      flow, and zero PacketPool growth after warm-up (the in-flight
//      population is bounded by the queues, not the offered load).
//
// All gates are on simulated results, so they hold in Debug and Release
// alike; results land in BENCH_overload.json for CI artifacts.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bench_util.hpp"
#include "core/embedded_router.hpp"
#include "core/scenario_runner.hpp"
#include "net/fault_injector.hpp"
#include "net/ldp.hpp"
#include "net/loadgen.hpp"
#include "obs/drop_reason.hpp"
#include "sw/linear_engine.hpp"

using namespace empls;

namespace {

std::string human(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fms", seconds * 1e3);
  return buf;
}

core::ScenarioRunner::Report run_text(const std::string& text) {
  auto result = core::ScenarioRunner::run_text(text);
  if (auto* err = std::get_if<net::ScenarioError>(&result)) {
    std::fprintf(stderr, "scenario failed: %s\n", err->message.c_str());
    std::exit(1);
  }
  return std::get<core::ScenarioRunner::Report>(std::move(result));
}

// ---------------------------------------------------------------------
// Part 1: saturation sweep.  100 Mb/s bottleneck, 184 B on the wire:
// the line saturates near 68 kpps.

struct SweepPoint {
  double offered_pps = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double goodput_pps = 0;
  double p99_s = 0;
  double p999_s = 0;
  bool conserved = false;
};

SweepPoint sweep_point(double offered_pps, double sim_s) {
  char text[512];
  std::snprintf(text, sizeof text,
                "router LER ler\n"
                "router EGR ler\n"
                "link LER EGR 100M 1ms\n"
                "lsp 10.1.0.0/16 LER EGR\n"
                "loadgen poisson LER 10.1.0.5 rate=%.0f flows=4096 "
                "seed=17 stop=%.3f\nrun %.3f\n",
                offered_pps, sim_s, sim_s + 0.2);
  const auto report = run_text(text);
  SweepPoint p;
  p.offered_pps = offered_pps;
  p.sent = report.loadgen->sent;
  p.delivered = report.loadgen->delivered;
  p.goodput_pps = static_cast<double>(p.delivered) / sim_s;
  p.p99_s = report.loadgen->p99_s;
  p.p999_s = report.loadgen->p999_s;
  p.conserved = report.loadgen->conserved;
  return p;
}

// ---------------------------------------------------------------------
// Part 2: containment campaigns.

struct CampaignResult {
  std::string kind;
  std::uint64_t injected = 0;
  std::uint64_t attack_delivered = 0;
  std::uint64_t attack_drops = 0;
  std::uint64_t victim_delivered = 0;
  double victim_p999_s = 0;
  net::GuardStats guard;
  obs::DropCounts drops{};
  bool victim_conserved = false;
};

CampaignResult campaign(const char* kind, double sim_s) {
  std::string text =
      "router LER ler\n"
      "router EGR ler\n"
      "link LER EGR 100M 1ms\n"
      "lsp 10.1.0.0/16 LER EGR\n"
      "guard * ttl=200 reprogram=100\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "loadgen poisson LER 10.1.0.5 rate=20k flows=4096 seed=5 "
                "stop=%.3f\n",
                sim_s);
  text += line;
  if (kind != nullptr) {
    std::snprintf(line, sizeof line,
                  "attack %s 0.2s LER rate=20k for=%.3f seed=9 "
                  "dst=10.1.0.9\n",
                  kind, sim_s * 0.6);
    text += line;
  }
  std::snprintf(line, sizeof line, "run %.3f\n", sim_s + 0.2);
  text += line;

  const auto report = run_text(text);
  CampaignResult r;
  r.kind = kind != nullptr ? kind : "baseline";
  if (!report.attacks.empty()) {
    r.injected = report.attacks[0].injected;
    r.attack_delivered = report.attacks[0].delivered;
    r.attack_drops = report.attacks[0].drops;
  }
  r.victim_delivered = report.loadgen->delivered;
  r.victim_p999_s = report.loadgen->p999_s;
  r.guard = report.guard;
  r.drops = report.drops;
  r.victim_conserved = report.loadgen->conserved;
  return r;
}

// ---------------------------------------------------------------------
// Part 3: sustained overload with exact books and a bounded pool.

struct SustainedResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  bool conserved = false;
  std::size_t pool_high_water_warm = 0;
  std::size_t pool_high_water_end = 0;
};

SustainedResult sustained(double rate_pps, double sim_s) {
  net::QosConfig qos;
  qos.queue_capacity = 64;
  net::Network net(qos);
  net::ControlPlane cp(net);
  std::vector<net::NodeId> ids;
  for (const char* name : {"LER", "EGR"}) {
    core::RouterConfig cfg;
    cfg.type = hw::RouterType::kLer;
    auto r = std::make_unique<core::EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    auto* raw = r.get();
    ids.push_back(net.add_node(std::move(r)));
    cp.register_router(ids.back(), &raw->routing());
  }
  net.connect(ids[0], ids[1], 100e6, 1e-3);
  cp.establish_lsp(ids, *mpls::Prefix::parse("10.1.0.0/16"));

  net::FlowLedger ledger;
  net::DropAccountant drops(net);
  net.set_delivery_handler([&](net::NodeId, const mpls::Packet& p) {
    ledger.on_delivered(p.flow_id, net.now() - p.created_at);
  });

  net::LoadGenConfig cfg;
  cfg.ingress = ids[0];
  cfg.dst = *mpls::Ipv4Address::parse("10.1.0.5");
  cfg.rate_pps = rate_pps;
  cfg.concurrent_flows = 1 << 16;  // flat arrays, not 65k heap objects
  cfg.seed = 23;
  cfg.stop = sim_s;
  net::OpenLoopGenerator gen(net, cfg, &ledger);
  gen.start();

  SustainedResult r;
  // The queues fill within milliseconds at 7x overload; one tenth of
  // the run is a generous warm-up.  Past it the in-flight population —
  // and therefore the pool — must not grow at all.
  net.events().schedule_at(sim_s * 0.1, [&] {
    r.pool_high_water_warm = net.pool().stats().high_water;
  });
  net.run();

  r.sent = ledger.sent_total();
  r.delivered = ledger.delivered_total();
  r.drops = drops.drops_in_range(net::kLoadGenFlowBase,
                                 net::kAttackFlowBase);
  r.conserved = ledger.conserved(drops);
  r.pool_high_water_end = net.pool().stats().high_water;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  std::printf("== overload survival%s ==\n\n", quick ? " [quick]" : "");

  bench::BenchJson json("overload");
  json.set("quick", quick);
  bench::Checks checks;

  // Part 1: walk the offered load to the knee.
  const double sweep_s = quick ? 0.3 : 1.0;
  const double rates[] = {10e3, 25e3, 40e3, 55e3, 62e3, 68e3, 80e3, 120e3};
  bench::Table sweep({"offered pps", "sent", "goodput pps", "ratio", "p99",
                      "p999"});
  double knee_pps = 0;
  double knee_p999 = 0;
  bool sweep_conserved = true;
  for (std::size_t i = 0; i < sizeof rates / sizeof rates[0]; ++i) {
    const auto p = sweep_point(rates[i], sweep_s);
    const double ratio =
        static_cast<double>(p.delivered) / static_cast<double>(p.sent);
    if (ratio >= 0.95) {
      knee_pps = p.offered_pps;
      knee_p999 = p.p999_s;
    }
    sweep_conserved = sweep_conserved && p.conserved;
    char rbuf[16];
    std::snprintf(rbuf, sizeof rbuf, "%.3f", ratio);
    sweep.add_row({human(p.offered_pps), std::to_string(p.sent),
                   human(p.goodput_pps), rbuf, ms(p.p99_s), ms(p.p999_s)});
    const std::string key = "sweep." + std::to_string(i);
    json.set(key + ".offered_pps", p.offered_pps);
    json.set(key + ".goodput_pps", p.goodput_pps);
    json.set(key + ".p99_s", p.p99_s);
    json.set(key + ".p999_s", p.p999_s);
  }
  sweep.print();
  std::printf("\nsaturation knee: %s pps (p999 %s)\n\n",
              human(knee_pps).c_str(), ms(knee_p999).c_str());
  json.set("knee_pps", knee_pps);
  json.set("knee_p999_s", knee_p999);
  checks.expect_true("sweep conserves every flow at every point",
                     sweep_conserved);
  checks.expect_true("knee sits above half the nominal link capacity",
                     knee_pps >= 34e3);
  checks.expect_true("p999 at the knee is bounded (< 50ms)",
                     knee_p999 > 0 && knee_p999 < 50e-3);

  // Part 2: containment campaigns against the guarded router.
  const double camp_s = quick ? 0.5 : 1.0;
  const auto baseline = campaign(nullptr, camp_s);
  bench::Table camp({"campaign", "injected", "atk delivered", "atk drops",
                     "victim goodput", "victim p999"});
  camp.add_row({"baseline", "-", "-", "-",
                std::to_string(baseline.victim_delivered),
                ms(baseline.victim_p999_s)});
  json.set("campaign.baseline.victim_delivered", baseline.victim_delivered);
  json.set("campaign.baseline.victim_p999_s", baseline.victim_p999_s);
  std::vector<CampaignResult> results;
  for (const char* kind : {"spoof", "ttl_flood", "reserved", "exhaust"}) {
    results.push_back(campaign(kind, camp_s));
    const auto& r = results.back();
    camp.add_row({r.kind, std::to_string(r.injected),
                  std::to_string(r.attack_delivered),
                  std::to_string(r.attack_drops),
                  std::to_string(r.victim_delivered),
                  ms(r.victim_p999_s)});
    const std::string key = "campaign." + r.kind;
    json.set(key + ".injected", r.injected);
    json.set(key + ".attack_delivered", r.attack_delivered);
    json.set(key + ".attack_drops", r.attack_drops);
    json.set(key + ".victim_delivered", r.victim_delivered);
    json.set(key + ".victim_p999_s", r.victim_p999_s);
  }
  camp.print();
  std::printf("\n");
  for (const auto& r : results) {
    const std::string tag = std::string(" [") + r.kind + "]";
    checks.expect_true("attack books balance exactly" + tag,
                       r.attack_delivered + r.attack_drops == r.injected &&
                           r.injected > 0);
    checks.expect_true("victim conserves every flow" + tag,
                       r.victim_conserved);
    checks.expect_true(
        "victim goodput >= 95% of the attack-free baseline" + tag,
        r.victim_delivered * 100 >= baseline.victim_delivered * 95);
    checks.expect_true("victim p999 stays bounded (< 50ms)" + tag,
                       r.victim_p999_s < 50e-3);
  }

  // Attribution to the specific new reasons, not a catch-all.
  const auto& spoof = results[0];
  const auto& ttl = results[1];
  const auto& reserved = results[2];
  const auto& exhaust = results[3];
  checks.expect_true(
      "every spoof packet attributed to spoofed-label",
      spoof.drops[static_cast<std::size_t>(
          obs::DropReason::kSpoofedLabel)] == spoof.injected &&
          spoof.attack_delivered == 0);
  checks.expect_true(
      "every reserved packet attributed to reserved-label",
      reserved.drops[static_cast<std::size_t>(
          obs::DropReason::kReservedLabel)] == reserved.injected &&
          reserved.attack_delivered == 0);
  checks.expect_true("ttl flood is clipped by the expiry budget",
                     ttl.guard.ttl_limited > 0 &&
                         ttl.drops[static_cast<std::size_t>(
                             obs::DropReason::kTtlRateLimited)] > 0);
  checks.expect_true("exhaust installs are admission-controlled",
                     exhaust.guard.reprogram_refusals > 0 &&
                         exhaust.drops[static_cast<std::size_t>(
                             obs::DropReason::kReprogramRateLimited)] > 0);

  // Part 3: sustained >= 10M-packet overload run (--quick: 1M).
  const double sus_s = quick ? 2.0 : 20.0;
  const auto sus = sustained(500e3, sus_s);
  std::printf("sustained: sent=%llu delivered=%llu drops=%llu "
              "pool_hw warm=%zu end=%zu\n\n",
              static_cast<unsigned long long>(sus.sent),
              static_cast<unsigned long long>(sus.delivered),
              static_cast<unsigned long long>(sus.drops),
              sus.pool_high_water_warm, sus.pool_high_water_end);
  json.set("sustained.sent", sus.sent);
  json.set("sustained.delivered", sus.delivered);
  json.set("sustained.drops", sus.drops);
  json.set("sustained.pool_high_water", sus.pool_high_water_end);
  checks.expect_true(quick ? "sustained run sends >= 1M packets"
                           : "sustained run sends >= 10M packets",
                     sus.sent >= (quick ? 1'000'000u : 10'000'000u));
  checks.expect_true("sustained books balance exactly: sent = "
                     "delivered + drops",
                     sus.sent == sus.delivered + sus.drops);
  checks.expect_true("sustained conservation holds per flow",
                     sus.conserved);
  checks.expect_true("zero pool growth after warm-up",
                     sus.pool_high_water_end == sus.pool_high_water_warm &&
                         sus.pool_high_water_warm > 0);

  json.write();
  std::printf("\n");
  return checks.exit_code();
}
