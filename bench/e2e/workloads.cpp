#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "reference.hpp"
#include "net/attack.hpp"
#include "net/domain.hpp"
#include "net/ldp.hpp"
#include "net/loadgen.hpp"
#include "net/mix.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "obs/drop_reason.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sw/linear_engine.hpp"

namespace empls::bench::e2e {

namespace {

constexpr double kWarmup = 0.5;
constexpr unsigned kSlices = 20;
// Host-speed reference samples taken through each slice and each set-up
// batch.
constexpr unsigned kSamplesPer = 10;
constexpr double kBinsPerSecond = 1e7;  // 0.1 us latency bins
constexpr std::size_t kMaxLatencyBins = std::size_t{1} << 22;  // 0.42 s

// Full-scale horizons: about 3 s of wall per round at the defining
// commit's speed.  Set-up batches: about 30 ms of builds per round, so
// set-up time is read over one long interval rather than from single
// builds of 50 us.  Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"line8", 20.0, 600},
    {"fib1k", 15.0, 6},
    {"overload", 28.0, 200},
    {"ring16", 3.0, 80},
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return net::mix64(seed + salt * net::kGoldenGamma);
}

mpls::Ipv4Address address(const char* text) {
  return *mpls::Ipv4Address::parse(text);
}

mpls::Prefix prefix(const std::string& text) {
  return *mpls::Prefix::parse(text);
}

/// "R3" and the like, built by append: GCC 12 reports a false -Wrestrict
/// on `"R" + std::to_string(i)`.
std::string numbered(const char* stem, std::size_t i) {
  std::string s = stem;
  s += std::to_string(i);
  return s;
}

/// Sim-time delivery latency in 0.1 us bins, held in fixed chunks that
/// are allocated on first use: the histogram never copies itself while
/// growing, and its footprint follows the latency ranges that occur.
class LatencyBins {
 public:
  void record(double seconds) {
    const double bin = std::max(seconds * kBinsPerSecond, 0.0);
    const auto i = std::min(static_cast<std::size_t>(bin), kMaxLatencyBins - 1);
    const std::size_t c = i / kChunk;
    if (c >= chunks_.size()) {
      chunks_.resize(c + 1);
    }
    if (!chunks_[c]) {
      chunks_[c] = std::make_unique<Chunk>();
    }
    ++(*chunks_[c])[i % kChunk];
    ++total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// f(bin, count) for every non-empty bin, in bin order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      if (!chunks_[c]) {
        continue;
      }
      for (std::size_t j = 0; j < kChunk; ++j) {
        if ((*chunks_[c])[j] > 0) {
          f(c * kChunk + j, std::uint64_t{(*chunks_[c])[j]});
        }
      }
    }
  }

  /// Lower edge of the bin holding the ceil(q * total)-th sample, in us.
  [[nodiscard]] double quantile_us(double q) const {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t cum = 0;
    double out = 0.0;
    bool found = false;
    for_each([&](std::size_t bin, std::uint64_t n) {
      cum += n;
      if (!found && cum >= rank) {
        out = static_cast<double>(bin) / kBinsPerSecond * 1e6;
        found = true;
      }
    });
    return out;
  }

 private:
  static constexpr std::size_t kChunk = 4096;
  using Chunk = std::array<std::uint32_t, kChunk>;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint64_t total_ = 0;
};

/// One fully built simulation.  Member order is destruction order in
/// reverse: traffic goes before the network it schedules on, and the
/// per-router traces outlive the routers that write into them.
struct Rig {
  explicit Rig(bool traced) : traced(traced) {}
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  bool traced;
  // Lane 0 holds the benchmark's own calls: LSP signalling and
  // timeline ticks.  Lanes 1.. are the routers (traced rounds only).
  NodeTrace main{"bench", 0};
  std::vector<std::unique_ptr<NodeTrace>> lanes;
  NsHist establish;
  NsHist tick;
  std::uint64_t establish_ns = 0;
  std::uint64_t tick_ns = 0;

  // The benchmark's own delivery books.
  std::uint64_t delivered_legit = 0;
  std::uint64_t delivered_attack = 0;
  LatencyBins latency;  // legitimate packets

  net::Network net;
  net::ControlPlane cp{net};
  obs::MetricsRegistry metrics;
  std::optional<obs::Timeline> timeline;
  std::vector<net::NodeId> routers;
  std::vector<std::unique_ptr<net::TrafficSource>> sources;
  std::unique_ptr<net::OpenLoopGenerator> loadgen;
  std::unique_ptr<net::AttackCampaign> attack;

  /// Library-default router (linear engine, wire validation on, no flow
  /// cache), with label spaces numbered as the scenario runner does.
  net::NodeId add_router(const std::string& name, bool ler) {
    core::RouterConfig rc;
    rc.type = ler ? hw::RouterType::kLer : hw::RouterType::kLsr;
    rc.label_base = 100 + 1000 * static_cast<std::uint32_t>(routers.size());
    auto engine = std::make_unique<sw::LinearEngine>();
    std::unique_ptr<core::EmbeddedRouter> router;
    if (traced) {
      lanes.push_back(std::make_unique<NodeTrace>(
          name, static_cast<std::uint32_t>(lanes.size() + 1)));
      NodeTrace& lane = *lanes.back();
      router = std::make_unique<TimedRouter>(
          name, std::make_unique<TimedEngine>(std::move(engine), lane), rc,
          lane);
    } else {
      router = std::make_unique<core::EmbeddedRouter>(name, std::move(engine),
                                                      rc);
    }
    core::EmbeddedRouter* raw = router.get();
    const net::NodeId id = net.add_node(std::move(router));
    cp.register_router(id, &raw->routing());
    routers.push_back(id);
    return id;
  }

  core::EmbeddedRouter& router(std::size_t i) {
    return net.node_as<core::EmbeddedRouter>(routers[i]);
  }

  /// Telemetry wired as the scenario runner wires it (registry live,
  /// tracer off) plus the benchmark's delivery books.
  void wire() {
    net.set_telemetry(&metrics, nullptr);
    net.set_delivery_handler(
        [this](net::NodeId, const mpls::Packet& p) { on_delivered(p); });
  }

  void on_delivered(const mpls::Packet& p) {
    if (p.flow_id >= net::kAttackFlowBase) {
      ++delivered_attack;
      return;
    }
    ++delivered_legit;
    latency.record(net.now() - p.created_at);
  }

  void signal(const std::vector<net::NodeId>& path, const mpls::Prefix& fec) {
    std::optional<ScopedSpan> span;
    if (traced) {
      span.emplace(main, "net.ldp.establish", establish, establish_ns);
    }
    if (!cp.establish_lsp(path, fec)) {
      throw std::runtime_error("LSP refused for " + fec.to_string());
    }
  }

  void add_cbr(std::uint32_t flow, net::NodeId ingress, const char* dst,
               std::uint8_t cos, double interval, double start, double stop) {
    const net::FlowSpec spec{flow, ingress, {}, address(dst), cos,
                             256,  start,   stop};
    sources.push_back(
        std::make_unique<net::CbrSource>(net, spec, nullptr, interval));
    sources.back()->start();
  }

  [[nodiscard]] std::uint64_t injected_legit() const {
    std::uint64_t n = loadgen ? loadgen->stats().packets_sent : 0;
    for (const auto& s : sources) {
      n += s->packets_sent();
    }
    return n;
  }
  [[nodiscard]] std::uint64_t injected_attack() const {
    return attack ? attack->injected_total() : 0;
  }
  [[nodiscard]] std::uint64_t injected() const {
    return injected_legit() + injected_attack();
  }
};

// ---------------------------------------------------------------------
// The four workloads.  `stop` ends the traffic: warm-up plus horizon.

void build_line8(Rig& rig, const RoundConfig& cfg, double stop) {
  std::vector<net::NodeId> path;
  for (int i = 0; i < 8; ++i) {
    path.push_back(rig.add_router(numbered("R", i), i == 0 || i == 7));
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    rig.net.connect(path[i], path[i + 1], 1e9, 100e-6);
  }
  rig.wire();
  rig.signal(path, prefix("10.1.0.0/16"));
  std::mt19937_64 rng(derive(cfg.seed, 1));
  std::uniform_real_distribution<double> phase(0.0, 100e-6);
  for (std::uint32_t flow = 1; flow <= 4; ++flow) {
    rig.add_cbr(flow, path.front(), "10.1.0.9",
                static_cast<std::uint8_t>(flow), 100e-6, phase(rng), stop);
  }
}

void build_fib1k(Rig& rig, const RoundConfig& cfg, double stop) {
  constexpr int kLsps = 1000;
  std::vector<net::NodeId> path;
  for (int i = 0; i < 5; ++i) {
    path.push_back(rig.add_router(numbered("F", i), i == 0 || i == 4));
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    rig.net.connect(path[i], path[i + 1], 1e9, 100e-6);
  }
  rig.wire();
  std::mt19937_64 rng(derive(cfg.seed, 2));
  for (int i = 0; i < kLsps; ++i) {
    const auto hi = static_cast<std::uint8_t>(i >> 8);
    const auto lo = static_cast<std::uint8_t>(i & 0xFF);
    rig.signal(path, mpls::Prefix{mpls::Ipv4Address::from_octets(10, hi, lo, 0),
                                  24});
    net::FlowSpec spec;
    spec.flow_id = static_cast<std::uint32_t>(i + 1);
    spec.ingress = path.front();
    spec.dst = mpls::Ipv4Address::from_octets(
        10, hi, lo, static_cast<std::uint8_t>(1 + rng() % 254));
    spec.payload_bytes = 160;
    spec.stop = stop;
    rig.sources.push_back(std::make_unique<net::PoissonSource>(
        rig.net, spec, nullptr, 40.0, derive(cfg.seed, 100 + i)));
    rig.sources.back()->start();
  }
}

void build_overload(Rig& rig, const RoundConfig& cfg, double stop) {
  const net::NodeId ler = rig.add_router("LER", true);
  const net::NodeId lsr = rig.add_router("LSR", false);
  const net::NodeId egr = rig.add_router("EGR", true);
  net::GuardConfig guard;
  guard.enabled = true;
  for (std::size_t i = 0; i < rig.routers.size(); ++i) {
    rig.router(i).set_guard(guard);
  }
  rig.net.connect(ler, lsr, 100e6, 1e-3);
  rig.net.connect(lsr, egr, 100e6, 1e-3);
  rig.wire();
  rig.signal({ler, lsr, egr}, prefix("10.1.0.0/16"));

  net::LoadGenConfig lc;
  lc.arrivals = net::LoadGenConfig::Arrivals::kMmpp;
  lc.ingress = ler;
  lc.dst = address("10.1.0.5");
  lc.rate_pps = 40e3;
  lc.burst_rate_pps = 120e3;
  lc.mean_sojourn = 100e-3;
  lc.concurrent_flows = 4096;
  lc.seed = derive(cfg.seed, 3);
  lc.stop = stop;
  rig.loadgen = std::make_unique<net::OpenLoopGenerator>(rig.net, lc, nullptr);
  rig.loadgen->start();

  // A 3 s exhaust campaign centred in the timed phase.
  const double warm = kWarmup * cfg.scale;
  const double length = 3.0 * cfg.scale;
  net::AttackSpec spec;
  spec.kind = net::AttackKind::kExhaust;
  spec.at = warm + (stop - warm - length) / 2;
  spec.duration = length;
  spec.ingress = ler;
  spec.rate_pps = 20e3;
  spec.seed = derive(cfg.seed, 4);
  spec.dst = address("10.1.0.9");
  rig.attack = std::make_unique<net::AttackCampaign>(rig.net);
  rig.attack->launch(spec);

  // Timeline ticks every 100 ms of (scaled) sim time, pre-scheduled as
  // the scenario runner does: refresh the registry, then sample it.
  const double dt = 0.1 * cfg.scale;
  obs::Timeline::Config tc;
  tc.interval_s = dt;
  rig.timeline.emplace(tc);
  rig.net.set_timeline(&*rig.timeline);
  const auto ticks = static_cast<std::uint64_t>(stop / dt + 1e-9);
  for (std::uint64_t k = 1; k <= ticks; ++k) {
    rig.net.events().schedule_at(dt * static_cast<double>(k), [r = &rig] {
      std::optional<ScopedSpan> span;
      if (r->traced) {
        span.emplace(r->main, "obs.tick", r->tick, r->tick_ns);
      }
      r->net.export_metrics(r->metrics);
      r->timeline->sample(r->metrics, r->net.now());
    });
  }
}

void build_ring16(Rig& rig, const RoundConfig& cfg, double stop) {
  constexpr std::size_t kNodes = 16;
  for (std::size_t i = 0; i < kNodes; ++i) {
    rig.add_router(numbered("N", i), true);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    rig.net.connect(rig.routers[i], rig.routers[(i + 1) % kNodes], 1e9,
                    100e-6);
  }
  // Timed rounds merge the domains on one thread.  Free-running domain
  // threads (the smoke test) are clamped to the hardware threads.
  const unsigned domains =
      cfg.free_running
          ? std::min(cfg.domains,
                     std::max(1u, std::thread::hardware_concurrency()))
          : cfg.domains;
  if (domains >= 2) {
    const net::SyncMode mode = cfg.free_running ? net::SyncMode::kFree
                                                : net::SyncMode::kDeterministic;
    if (!rig.net.partition(domains, mode)) {
      throw std::runtime_error("ring16: partition refused");
    }
    rig.net.domain_runtime()->enable_profiling(rig.traced);
  }
  rig.wire();
  std::mt19937_64 rng(derive(cfg.seed, 5));
  std::uniform_real_distribution<double> phase(0.0, 200e-6);
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<net::NodeId> path;
    for (std::size_t k = 0; k <= 6; ++k) {
      path.push_back(rig.routers[(i + k) % kNodes]);
    }
    const std::string net16 = numbered("10.", i + 1) + ".0.";
    rig.signal(path, prefix(net16 + "0/16"));
    const std::string dst = net16 + "9";
    for (std::uint32_t f = 0; f < 2; ++f) {
      rig.add_cbr(static_cast<std::uint32_t>(2 * i + f + 1), path.front(),
                  dst.c_str(), 0, 200e-6, phase(rng), stop);
    }
  }
}

void build(Rig& rig, const RoundConfig& cfg, double stop) {
  const std::string_view name = cfg.workload->name;
  if (name == "line8") {
    build_line8(rig, cfg, stop);
  } else if (name == "fib1k") {
    build_fib1k(rig, cfg, stop);
  } else if (name == "overload") {
    build_overload(rig, cfg, stop);
  } else {
    build_ring16(rig, cfg, stop);
  }
}

// ---------------------------------------------------------------------
// Measurement.

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counters read at the start and end of the timed phase.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t acquired = 0;
  std::uint64_t injected = 0;
  std::uint64_t tick_ns = 0;
  std::vector<std::uint64_t> engine_cycles;
  std::vector<net::DomainRuntime::PhaseProfile> profile;
  std::vector<net::DomainRuntime::Counters> counters;
};

Snapshot snapshot(Rig& rig) {
  Snapshot s;
  const net::SimStats sim = rig.net.sim_stats();
  s.events = sim.events_executed;
  s.acquired = sim.packets_acquired;
  s.injected = rig.injected();
  s.tick_ns = rig.tick_ns;
  for (std::size_t i = 0; i < rig.routers.size(); ++i) {
    s.engine_cycles.push_back(rig.router(i).stats().engine_cycles);
  }
  if (const net::DomainRuntime* drt = rig.net.domain_runtime()) {
    for (std::uint32_t d = 0; d < drt->domain_count(); ++d) {
      s.profile.push_back(drt->profile(d));
      s.counters.push_back(drt->counters(d));
    }
  }
  return s;
}

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Information-base writes and LSP signalling, pooled over every set-up
/// of a traced round (a single build has only a handful of each).
struct SetupTrace {
  NsHist install;
  NsHist establish;

  void harvest(const Rig& rig) {
    for (const auto& lane : rig.lanes) {
      install.merge(lane->install);
    }
    establish.merge(rig.establish);
  }
};

/// The per-layer ledger of a traced round's timed phase.
std::vector<NamedValue> ledger(Rig& rig, const SetupTrace& setup,
                               const Snapshot& a, const Snapshot& b,
                               double timed_wall_s) {
  std::vector<NamedValue> out;
  auto add = [&out](std::string name, double v, std::string unit) {
    out.push_back(NamedValue{std::move(name), std::move(unit), v});
  };
  const double pkts = static_cast<double>(b.injected - a.injected);
  const double events = static_cast<double>(b.events - a.events);

  NsHist update;
  NsHist receive;
  NsHist classify;
  NsHist wire;
  double engine_ns = 0;
  double self_ns = 0;
  for (const auto& lane : rig.lanes) {
    update.merge(lane->update);
    receive.merge(lane->receive_self);
    classify.merge(lane->classify);
    wire.merge(lane->wire_check);
    engine_ns += static_cast<double>(lane->engine_ns);
    self_ns += static_cast<double>(lane->receive_self_ns);
  }
  const double obs_ns = static_cast<double>(b.tick_ns - a.tick_ns);

  // Busy host time: the timed wall, or with partitioned domains the sum
  // of every domain's wall inside the runtime.
  double busy_ns = timed_wall_s * 1e9;
  double dispatch = 0;
  double search = 0;
  double handoff = 0;
  double barrier = 0;
  double handoffs = 0;
  double windows = 0;
  double idle = 0;
  double overflows = 0;
  double max_exec = 0;
  double sum_exec = 0;
  if (!b.profile.empty()) {
    double wall = 0;
    for (std::size_t d = 0; d < b.profile.size(); ++d) {
      const auto& p0 = a.profile[d];
      const auto& p1 = b.profile[d];
      const auto& c0 = a.counters[d];
      const auto& c1 = b.counters[d];
      wall += static_cast<double>(p1.wall_ns - p0.wall_ns);
      dispatch += static_cast<double>(p1.dispatch_ns - p0.dispatch_ns);
      search += static_cast<double>(p1.search_ns - p0.search_ns);
      handoff += static_cast<double>(p1.handoff_ns - p0.handoff_ns);
      barrier += static_cast<double>(p1.barrier_ns - p0.barrier_ns);
      handoffs += static_cast<double>(c1.handoffs_in - c0.handoffs_in);
      windows += static_cast<double>(c1.windows - c0.windows);
      idle += static_cast<double>(c1.idle_windows - c0.idle_windows);
      overflows += static_cast<double>(c1.ring_overflows - c0.ring_overflows);
      const auto exec = static_cast<double>(c1.executed - c0.executed);
      max_exec = std::max(max_exec, exec);
      sum_exec += exec;
    }
    if (wall > 0) {
      busy_ns = wall;
    }
  }

  add("sw.update_ns_p50", update.quantile(0.50), "ns");
  add("sw.update_ns_p99", update.quantile(0.99), "ns");
  add("sw.update_n", static_cast<double>(update.count()), "count");
  add("sw.share", ratio(engine_ns, busy_ns), "ratio");
  add("sw.updates_per_pkt", ratio(static_cast<double>(update.count()), pkts),
      "count");
  add("sw.install_ns_p50", setup.install.quantile(0.50), "ns");
  add("sw.install_n", static_cast<double>(setup.install.count()), "count");
  double cycles = 0;
  for (std::size_t i = 0; i < b.engine_cycles.size(); ++i) {
    cycles += static_cast<double>(b.engine_cycles[i] - a.engine_cycles[i]);
  }
  add("sw.modelled_cycles_per_pkt", ratio(cycles, pkts), "cycles");

  add("core.receive_self_ns_p50", receive.quantile(0.50), "ns");
  add("core.receive_self_ns_p99", receive.quantile(0.99), "ns");
  add("core.receive_n", static_cast<double>(receive.count()), "count");
  add("core.share", ratio(self_ns, busy_ns), "ratio");
  add("core.ingress.classify_ns_p50", classify.quantile(0.50), "ns");
  add("core.ingress.wire_check_ns_p50", wire.quantile(0.50), "ns");
  add("core.ingress.sampled_n", static_cast<double>(classify.count()),
      "count");
  double queue_peak = 0;
  double wait_s = 0;
  double received = 0;
  double installs = 0;
  net::GuardStats guard{};
  for (std::size_t i = 0; i < rig.routers.size(); ++i) {
    core::EmbeddedRouter& r = rig.router(i);
    queue_peak =
        std::max(queue_peak, static_cast<double>(r.stats().engine_queue_peak));
    wait_s += r.stats().engine_wait_time;
    received += static_cast<double>(r.stats().received);
    installs += static_cast<double>(r.routing().slow_path_installs());
    const net::GuardStats& g = r.guard_stats();
    guard.admitted += g.admitted;
    guard.shed += g.shed;
    guard.demoted += g.demoted;
    guard.reprogram_refusals += g.reprogram_refusals;
  }
  add("core.engine_queue_peak", queue_peak, "count");
  add("core.engine_wait_us_mean", ratio(wait_s * 1e6, received), "sim_us");
  add("core.slow_path_installs", installs, "count");

  const net::SimStats sim = rig.net.sim_stats();
  add("net.sched.events_per_pkt", ratio(events, pkts), "count");
  add("net.loop_ns_per_event",
      ratio(busy_ns - engine_ns - self_ns - obs_ns - handoff - barrier,
            events),
      "ns");
  add("net.sched.heap_fallback_events",
      static_cast<double>(sim.events_heap_fallback), "count");
  add("net.sched.calendar_rebuilds", static_cast<double>(sim.calendar_rebuilds),
      "count");
  add("net.sched.clamped", static_cast<double>(sim.clamped_schedules),
      "count");
  const net::DomainRuntime* drt = rig.net.domain_runtime();
  add("net.pool.high_water", static_cast<double>(sim.pool_high_water),
      "count");
  add("net.pool.capacity",
      static_cast<double>(drt != nullptr ? drt->pool_stats().capacity
                                         : rig.net.pool().stats().capacity),
      "count");
  add("net.pool.acquired_per_pkt",
      ratio(static_cast<double>(b.acquired - a.acquired), pkts), "count");
  double queue_drops = 0;
  double util_max = 0;
  for (const net::NodeId id : rig.routers) {
    for (const auto& adj : rig.net.adjacency(id)) {
      const net::Link& l = rig.net.link_from(id, adj.port);
      queue_drops += static_cast<double>(l.queue().total_stats().dropped);
      util_max = std::max(util_max, l.utilization());
    }
  }
  add("net.link.queue_drops", queue_drops, "count");
  add("net.link.util_max", util_max, "ratio");
  const obs::DropCounts drops = rig.net.drop_totals();
  for (std::size_t i = 0; i < obs::kDropReasonCount; ++i) {
    add("net.drops." +
            std::string(obs::to_string(static_cast<obs::DropReason>(i))),
        static_cast<double>(drops[i]), "count");
  }
  add("net.guard.admitted", static_cast<double>(guard.admitted), "count");
  add("net.guard.shed", static_cast<double>(guard.shed), "count");
  add("net.guard.demoted", static_cast<double>(guard.demoted), "count");
  add("net.guard.reprogram_refusals",
      static_cast<double>(guard.reprogram_refusals), "count");
  add("net.loadgen.sent",
      rig.loadgen ? static_cast<double>(rig.loadgen->stats().packets_sent) : 0,
      "count");
  add("net.loadgen.flows_started",
      rig.loadgen ? static_cast<double>(rig.loadgen->stats().flows_started)
                  : 0,
      "count");
  add("net.ldp.establish_ns_p50", setup.establish.quantile(0.50), "ns");
  add("net.ldp.establish_n", static_cast<double>(setup.establish.count()),
      "count");

  const double dom_wall = dispatch + search + handoff + barrier;
  add("net.domain.dispatch_share", ratio(dispatch, dom_wall), "ratio");
  add("net.domain.search_share", ratio(search, dom_wall), "ratio");
  add("net.domain.handoff_share", ratio(handoff, dom_wall), "ratio");
  add("net.domain.barrier_share", ratio(barrier, dom_wall), "ratio");
  add("net.domain.handoffs_per_pkt", ratio(handoffs, pkts), "count");
  add("net.domain.windows", windows, "count");
  add("net.domain.idle_window_ratio", ratio(idle, windows), "ratio");
  add("net.domain.ring_overflows", overflows, "count");
  add("net.domain.event_imbalance",
      b.profile.empty()
          ? 0.0
          : ratio(max_exec, sum_exec / static_cast<double>(b.profile.size())),
      "ratio");

  add("obs.tick_ns_p50", rig.tick.quantile(0.50), "ns");
  add("obs.tick_n", static_cast<double>(rig.tick.count()), "count");
  add("obs.share", ratio(obs_ns, busy_ns), "ratio");
  add("obs.timeline_series",
      rig.timeline ? static_cast<double>(rig.timeline->column_count()) : 0.0,
      "count");
  return out;
}

/// Close the books of a drained rig: conservation, fingerprint, latency.
void close_books(Rig& rig, RoundResult& res) {
  const std::uint64_t legit = rig.injected_legit();
  const std::uint64_t attack = rig.injected_attack();
  const obs::DropCounts drops = rig.net.drop_totals();
  std::uint64_t dropped = 0;
  for (const std::uint64_t d : drops) {
    dropped += d;
  }
  const std::uint64_t delivered = rig.net.delivered_count();
  res.offered = legit + attack;
  res.offered_legit = legit;
  res.delivered_legit = rig.delivered_legit;
  const std::uint64_t accounted = delivered + dropped;
  res.unaccounted = accounted > res.offered ? accounted - res.offered
                                            : res.offered - accounted;
  // Every delivery must also have reached the benchmark's handler.
  if (rig.delivered_legit + rig.delivered_attack != delivered) {
    res.unaccounted += 1;
  }

  res.latency_samples = rig.latency.total();
  res.latency_p50_us = rig.latency.quantile_us(0.50);
  res.latency_p99_us = rig.latency.quantile_us(0.99);
  res.loss_ratio =
      legit == 0 ? 0.0
                 : 1.0 - static_cast<double>(rig.delivered_legit) /
                             static_cast<double>(legit);

  Fnv fp;
  std::ostringstream books;
  books << "offered=" << legit << '+' << attack
        << " delivered=" << rig.delivered_legit << '+'
        << rig.delivered_attack;
  fp.add(legit);
  fp.add(attack);
  fp.add(rig.delivered_legit);
  fp.add(rig.delivered_attack);
  for (std::size_t i = 0; i < obs::kDropReasonCount; ++i) {
    fp.add(drops[i]);
    if (drops[i] > 0) {
      books << ' ' << obs::to_string(static_cast<obs::DropReason>(i)) << '='
            << drops[i];
    }
  }
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < rig.routers.size(); ++i) {
    const std::uint64_t c = rig.router(i).stats().engine_cycles;
    fp.add(c);
    cycles += c;
  }
  books << " cycles=" << cycles;
  rig.latency.for_each([&fp](std::size_t bin, std::uint64_t n) {
    fp.add(bin);
    fp.add(n);
  });
  res.fingerprint = fp.h;
  res.books = books.str();
}

void write_trace(const Rig& rig, const std::string& path) {
  std::vector<const NodeTrace*> lanes{&rig.main};
  for (const auto& lane : rig.lanes) {
    lanes.push_back(lane.get());
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  write_chrome_trace(out, lanes);
}

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // launcher that execs the benchmark would report its own peak.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

RoundResult run_round(const RoundConfig& cfg) {
  const double warm = kWarmup * cfg.scale;
  const double horizon = cfg.workload->horizon_s * cfg.scale;
  const double stop = warm + horizon;
  RoundResult res;

  // Reference samples interleaved with the timed work: one after every
  // tenth of a set-up batch and after every tenth of a slice, so each
  // speed is read over the same stretch of host time as what it scales.
  auto sample = [&cfg](HostSpeed& speed) {
    if (cfg.reference != nullptr) {
      speed.add(cfg.reference->sample_ns());
    }
  };

  // Set-up, repeated: each earlier build is torn down untimed before the
  // next starts, so memory holds one rig at a time.
  std::unique_ptr<Rig> rig;
  SetupTrace setup_trace;
  const unsigned setups = std::max(1u, cfg.setups);
  const unsigned per_sample = (setups + kSamplesPer - 1) / kSamplesPer;
  std::int64_t setup_ns = 0;
  HostSpeed setup_speed;
  for (unsigned k = 0; k < setups; ++k) {
    if (rig && cfg.traced) {
      setup_trace.harvest(*rig);
    }
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(cfg.traced);
    build(*rig, cfg, stop);
    setup_ns += now_ns() - t0;
    if ((k + 1) % per_sample == 0 || k + 1 == setups) {
      sample(setup_speed);
    }
  }
  res.setup_s = static_cast<double>(setup_ns) * 1e-9 / setups *
                setup_speed.speed();
  Rig& r = *rig;

  r.net.run_until(warm);
  for (const auto& lane : r.lanes) {
    lane->reset_run();
  }
  const Snapshot a = snapshot(r);
  std::vector<double> rates;
  std::vector<double> speeds;
  std::uint64_t before = a.injected;
  constexpr unsigned kSteps = kSlices * kSamplesPer;
  for (unsigned s = 0; s < kSlices; ++s) {
    double dt = 0;
    HostSpeed speed;
    for (unsigned k = 1; k <= kSamplesPer; ++k) {
      const std::int64_t t0 = now_ns();
      r.net.run_until(warm + horizon * (s * kSamplesPer + k) / kSteps);
      dt += static_cast<double>(now_ns() - t0) * 1e-9;
      sample(speed);
    }
    const std::uint64_t after = r.injected();
    speeds.push_back(speed.speed());
    rates.push_back(static_cast<double>(after - before) / dt / speeds.back());
    res.timed_wall_s += dt;
    before = after;
  }
  const Snapshot b = snapshot(r);
  res.pkts_per_s = summarize(std::move(rates)).median;
  res.host_speed = summarize(std::move(speeds)).median;
  res.timed_pkts = b.injected - a.injected;
  if (cfg.traced) {
    setup_trace.harvest(r);
    res.layers = ledger(r, setup_trace, a, b, res.timed_wall_s);
  }

  r.net.run();  // drain to quiescence
  close_books(r, res);
  if (cfg.traced && !cfg.trace_path.empty()) {
    write_trace(r, cfg.trace_path);
  }
  return res;
}

std::string fmt(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) {
    return s;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quartile = [&v, n](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

}  // namespace empls::bench::e2e
