#include "core/scenario_runner.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "net/attack.hpp"
#include "net/domain.hpp"
#include "net/failure_detector.hpp"
#include "net/fault_injector.hpp"
#include "net/loadgen.hpp"
#include "net/oam.hpp"
#include "net/protection.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

#include "sw/cam_engine.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/sharded_engine.hpp"
#include "sw/trie_engine.hpp"

namespace empls::core {

namespace {

using EngineKind = net::EngineDecl::Kind;

std::unique_ptr<sw::LabelEngine> make_engine(const net::EngineDecl& e) {
  switch (e.kind) {
    case EngineKind::kLinear:
      return std::make_unique<sw::LinearEngine>();
    case EngineKind::kCam:
      return std::make_unique<sw::CamEngine>();
    case EngineKind::kTrie:
      return std::make_unique<sw::TrieEngine>();
    case EngineKind::kHw:
      return std::make_unique<sw::HwEngine>();
    case EngineKind::kSharded:
      if (e.trie_replicas) {
        return std::make_unique<sw::ShardedEngine>(e.shards, [] {
          return std::make_unique<sw::TrieEngine>();
        });
      }
      return std::make_unique<sw::ShardedEngine>(e.shards);
  }
  return nullptr;
}

/// Engine batch size when the router line sets none: a sharded engine
/// batches (its parallelism is wasted on per-packet service), every
/// other engine serves one packet at a time.
std::size_t default_batch(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSharded:
      return 16;
    case EngineKind::kLinear:
    case EngineKind::kCam:
    case EngineKind::kTrie:
    case EngineKind::kHw:
      break;
  }
  return 1;
}

/// A failure tied to no directive (an output file that cannot be
/// written) reports line 0.
net::ScenarioError semantic_error(std::string message, int line = 0) {
  return net::ScenarioError{line, std::move(message)};
}

bool check_op(double lhs, net::ExpectDecl::Op op, double rhs) {
  switch (op) {
    case net::ExpectDecl::Op::kLt:
      return lhs < rhs;
    case net::ExpectDecl::Op::kLe:
      return lhs <= rhs;
    case net::ExpectDecl::Op::kGt:
      return lhs > rhs;
    case net::ExpectDecl::Op::kGe:
      return lhs >= rhs;
    case net::ExpectDecl::Op::kEq:
      return lhs == rhs;
    case net::ExpectDecl::Op::kNe:
      return lhs != rhs;
  }
  return false;
}

/// An expect metric spec split into its registry coordinates:
/// "name{labels}.p999" → {"name", "labels", ".p999"}.  The suffix
/// (".p50" / ".p99" / ".p999" / ".count") selects a histogram facet.
struct MetricSpec {
  std::string name;
  std::string labels;
  std::string suffix;
};

MetricSpec split_metric_spec(const std::string& metric) {
  MetricSpec out;
  if (const auto brace = metric.find('{'); brace != std::string::npos) {
    const auto close = metric.rfind('}');
    if (close != std::string::npos && close > brace) {
      out.name = metric.substr(0, brace);
      out.labels = metric.substr(brace + 1, close - brace - 1);
      out.suffix = metric.substr(close + 1);
      return out;
    }
  }
  out.name = metric;
  // Longest suffix first: ".p999" would otherwise match ".p99"'s check.
  for (const std::string_view sfx : {".p999", ".p50", ".p99", ".count"}) {
    if (out.name.size() > sfx.size() &&
        std::string_view(out.name).substr(out.name.size() - sfx.size()) ==
            sfx) {
      out.suffix = std::string(sfx);
      out.name.resize(out.name.size() - sfx.size());
      break;
    }
  }
  return out;
}

std::string format_value(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// End-of-run registry lookup for an unwindowed expect.  nullopt when
/// the series does not exist (or a histogram is named without a facet).
std::optional<double> registry_value(const obs::MetricsRegistry& metrics,
                                     const MetricSpec& spec) {
  if (spec.suffix.empty()) {
    if (const obs::Counter* c =
            metrics.find_counter(spec.name, spec.labels)) {
      return static_cast<double>(c->value());
    }
    if (const obs::Gauge* g = metrics.find_gauge(spec.name, spec.labels)) {
      return g->value();
    }
    return std::nullopt;
  }
  const obs::Histogram* h = metrics.find_histogram(spec.name, spec.labels);
  if (h == nullptr) {
    return std::nullopt;
  }
  if (spec.suffix == ".count") {
    return static_cast<double>(h->count());
  }
  const double q = spec.suffix == ".p50" ? 0.50
                   : spec.suffix == ".p99" ? 0.99
                                           : 0.999;
  return static_cast<double>(h->quantile(q));
}

}  // namespace

std::variant<ScenarioRunner::Report, net::ScenarioError> ScenarioRunner::run(
    const net::Scenario& scenario) {
  net::Network net(scenario.qos);
  net::ControlPlane cp(net);
  Report report;

  // Routers.
  std::map<std::string, net::NodeId> ids;
  std::uint32_t label_base = 100;
  for (const auto& decl : scenario.routers) {
    RouterConfig cfg;
    cfg.type = decl.is_ler ? hw::RouterType::kLer : hw::RouterType::kLsr;
    cfg.clock_hz = decl.clock_hz;
    cfg.label_base = label_base;
    label_base += 1000;
    // Batch size: explicit `batch=K` wins over the engine's default.
    cfg.engine_batch_size =
        decl.batch > 0 ? decl.batch : default_batch(decl.engine.kind);
    cfg.flow_cache_entries = decl.cache;
    auto router = std::make_unique<EmbeddedRouter>(
        decl.name, make_engine(decl.engine), cfg);
    auto* raw = router.get();
    const auto id = net.add_node(std::move(router));
    cp.register_router(id, &raw->routing());
    ids.emplace(decl.name, id);
  }
  auto id_of = [&](const std::string& name) { return ids.at(name); };

  // Links.
  for (const auto& decl : scenario.links) {
    net.connect(id_of(decl.a), id_of(decl.b), decl.bandwidth_bps,
                decl.delay);
  }

  // Event-domain partitioning (net/domain.hpp), before anything is
  // scheduled so every first event can anchor on its node's queue.
  // Some directives force a downgrade: the control-plane ones
  // (Scenario::control_plane(), recorded by the parse) schedule work
  // onto the main queue mid-run that touches other domains' links and
  // nodes, which only the deterministic merge's synchronised clocks
  // make safe.
  std::size_t domains = scenario.domains;
  net::SyncMode sync = scenario.sync;
  std::string domain_note;
  if (domains == 0) {  // domains=auto
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    domains = std::min<std::size_t>(hw, scenario.routers.size());
  }
  auto add_note = [&domain_note](std::string_view note) {
    if (!domain_note.empty()) {
      domain_note += "; ";
    }
    domain_note += note;
  };
  if (domains > 1 && sync == net::SyncMode::kFree &&
      scenario.control_plane()) {
    sync = net::SyncMode::kDeterministic;
    add_note("sync downgraded to deterministic: control-plane directives");
  }
  // Timeline ticks read every domain's counters mid-run; only the
  // merge's synchronised clocks make that safe.
  if (domains > 1 && sync == net::SyncMode::kFree &&
      scenario.sample_interval) {
    sync = net::SyncMode::kDeterministic;
    add_note("sync downgraded to deterministic: timeline sampling");
  }
  // Tracing is safe under the deterministic merge (journeys are re-keyed
  // across boundary handoffs on the single merge thread); only the
  // free-running mode — concurrent journey-table access — still forces
  // one domain.
  if (domains > 1 && sync == net::SyncMode::kFree &&
      !scenario.trace_path.empty()) {
    domains = 1;
    add_note("single domain forced: trace armed under sync=free");
  }
  if (domains > 1 && !net.partition(domains, sync)) {
    if (sync == net::SyncMode::kFree &&
        net.partition(domains, net::SyncMode::kDeterministic)) {
      sync = net::SyncMode::kDeterministic;
      add_note(
          "sync downgraded to deterministic: zero-lookahead boundary link");
    } else {
      domains = 1;
      if (domain_note.empty()) {
        add_note("single domain forced: partition refused");
      }
    }
  }
  if (const net::DomainRuntime* drt = net.domain_runtime()) {
    report.domains = drt->domain_count();
    report.sync_mode = std::string(net::to_string(drt->mode()));
  }
  report.domain_note = std::move(domain_note);

  // Telemetry: the registry is always live (the report carries its
  // snapshot); the hop tracer is armed only by a `trace=` directive, so
  // an untraced run pays nothing on the per-packet path.
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  std::optional<obs::HopTracer> tracer;
  if (!scenario.trace_path.empty()) {
    tracer.emplace();
    tracer->set_enabled(true);
  }
  net.set_telemetry(metrics.get(), tracer ? &*tracer : nullptr);
  report.domain_traced = tracer.has_value() && report.domains > 1;

  // Timeline sampling (the `sample` directive): delta-encoded series
  // over the registry, fed by ticks pre-scheduled over the run window.
  std::optional<obs::Timeline> timeline;
  if (scenario.sample_interval) {
    obs::Timeline::Config tc;
    tc.interval_s = *scenario.sample_interval;
    timeline.emplace(tc);
    net.set_timeline(&*timeline);
  }

  // The per-domain execution profiler (the `profile` directive).
  if (scenario.profile) {
    if (net::DomainRuntime* drt = net.domain_runtime()) {
      drt->enable_profiling(true);
    }
  }

  // Tunnels first (tunnel LSPs reference them), then LSPs.
  std::map<std::string, net::TunnelId> tunnels;
  for (const auto& decl : scenario.tunnels) {
    std::vector<net::NodeId> path;
    for (const auto& name : decl.path) {
      path.push_back(id_of(name));
    }
    const auto tunnel = cp.establish_tunnel(path);
    if (!tunnel) {
      return semantic_error("tunnel could not be established: " + decl.name,
                            decl.line);
    }
    tunnels.emplace(decl.name, *tunnel);
    ++report.tunnels_established;
  }
  std::vector<net::LspId> lsp_ids;
  for (const auto& decl : scenario.lsps) {
    std::optional<net::LspId> lsp;
    if (decl.cspf) {
      lsp = cp.establish_lsp_cspf(id_of(decl.path.front()),
                                  id_of(decl.path.back()), decl.fec,
                                  decl.bw);
    } else {
      std::vector<net::NodeId> path;
      for (const auto& name : decl.path) {
        path.push_back(id_of(name));
      }
      net::LspOptions options;
      options.bw = decl.bw;
      options.php = decl.php;
      options.allow_merge = decl.merge;
      lsp = cp.establish_lsp(path, decl.fec, options);
    }
    if (!lsp) {
      return semantic_error(
          "lsp could not be established for " + decl.fec.to_string(),
          decl.line);
    }
    lsp_ids.push_back(*lsp);
    ++report.lsps_established;
  }
  for (const auto& decl : scenario.tunnel_lsps) {
    const auto it = tunnels.find(decl.tunnel);
    if (it == tunnels.end()) {
      return semantic_error("unknown tunnel: " + decl.tunnel, decl.line);
    }
    std::vector<net::NodeId> pre;
    std::vector<net::NodeId> post;
    for (const auto& name : decl.pre) {
      pre.push_back(id_of(name));
    }
    for (const auto& name : decl.post) {
      post.push_back(id_of(name));
    }
    if (!cp.establish_lsp_via_tunnel(pre, it->second, post, decl.fec,
                                     decl.bw)) {
      return semantic_error(
          "lsp-via-tunnel could not be established for " +
              decl.fec.to_string(),
          decl.line);
    }
    ++report.lsps_established;
  }

  // Local protection (the `protect` directive): pre-signal a detour
  // around every link of every explicit LSP now, and switch at the
  // point of local repair on the fast link-down signal at run time.
  std::optional<net::ProtectionManager> protection;
  if (scenario.protect) {
    net::ProtectOptions popts;
    popts.bw = scenario.protect_bw;
    for (const auto id : lsp_ids) {
      report.backups_installed += cp.protect_lsp(id, popts);
    }
    protection.emplace(net, cp);
    protection->attach_fast_signal();
  }

  // Ingress policers.
  for (const auto& decl : scenario.policers) {
    net::PolicerConfig cfg;
    cfg.rate_bps = decl.rate_bps;
    cfg.burst_bytes = decl.burst_bytes;
    cfg.action = decl.demote ? net::PolicerAction::kDemote
                             : net::PolicerAction::kDrop;
    net.node_as<EmbeddedRouter>(id_of(decl.ingress))
        .set_policer(decl.flow_id, cfg);
  }

  // Ingress guards (the `guard` directive; `guard *` arms every
  // router with the same thresholds).
  for (const auto& decl : scenario.guards) {
    if (decl.router == "*") {
      for (const auto& r : scenario.routers) {
        net.node_as<EmbeddedRouter>(id_of(r.name)).set_guard(decl.config);
      }
    } else {
      net.node_as<EmbeddedRouter>(id_of(decl.router))
          .set_guard(decl.config);
    }
  }

  // Overload machinery: one shared flow ledger for every open-loop
  // generator, per-attack delivery tallies, and a drop accountant to
  // close the books (it must subscribe before any packet can drop).
  const bool overload = !scenario.loadgens.empty() ||
                        !scenario.attacks.empty();
  std::optional<net::FlowLedger> ledger;
  std::optional<net::DropAccountant> accountant;
  std::vector<std::uint64_t> attack_delivered(scenario.attacks.size(), 0);
  if (overload) {
    accountant.emplace(net);
  }
  if (!scenario.loadgens.empty()) {
    ledger.emplace();
    if (timeline) {
      // The ledger's HDR histogram lives outside the registry (it is
      // per-run state); track it directly so windowed latency quantiles
      // land in the timeline — the series the saturation-knee and SLO
      // checks read.
      timeline->track_histogram("empls_loadgen_latency_ns",
                                &ledger->latency_ns());
    }
  }

  // Delivery accounting.  Reserved flow-id blocks keep the scripted
  // statistics clean: OAM probes are dropped from the books entirely,
  // open-loop flows go to the flat ledger (FlowStats would keep every
  // latency sample of millions of flows), attack deliveries are tallied
  // per campaign row.
  net.set_delivery_handler([&report, &net, &ledger, &attack_delivered](
                               net::NodeId, const mpls::Packet& p) {
    if (p.flow_id >= net::kOamFlowBase) {
      return;
    }
    if (p.flow_id >= net::kAttackFlowBase) {
      const std::size_t i = p.flow_id - net::kAttackFlowBase;
      if (i < attack_delivered.size()) {
        ++attack_delivered[i];
      }
      return;
    }
    if (p.flow_id >= net::kLoadGenFlowBase) {
      if (ledger) {
        ledger->on_delivered(p.flow_id, net.now() - p.created_at);
      }
      return;
    }
    report.flows.on_delivered(p, net.now());
  });

  // Open-loop generators (the `loadgen` directive), each with its own
  // 16M-flow id block.
  std::vector<std::unique_ptr<net::OpenLoopGenerator>> generators;
  for (std::size_t i = 0; i < scenario.loadgens.size(); ++i) {
    const auto& decl = scenario.loadgens[i];
    net::LoadGenConfig cfg;
    cfg.arrivals = decl.kind == "mmpp"
                       ? net::LoadGenConfig::Arrivals::kMmpp
                       : net::LoadGenConfig::Arrivals::kPoisson;
    cfg.ingress = id_of(decl.ingress);
    cfg.dst = *mpls::Ipv4Address::parse(decl.dst);
    cfg.rate_pps = decl.rate_pps;
    cfg.burst_rate_pps = decl.burst_rate_pps;
    cfg.mean_sojourn = decl.sojourn;
    cfg.concurrent_flows = decl.flows;
    cfg.pareto_alpha = decl.alpha;
    cfg.pareto_min_packets = decl.min_packets;
    cfg.cos = decl.cos;
    cfg.payload_bytes = decl.size;
    cfg.seed = decl.seed;
    cfg.flow_id_base = net::kLoadGenFlowBase +
                       static_cast<std::uint32_t>(i) *
                           net::kLoadGenFlowStride;
    cfg.start = decl.start;
    cfg.stop = decl.stop;
    generators.push_back(std::make_unique<net::OpenLoopGenerator>(
        net, cfg, &*ledger));
    generators.back()->start();
  }

  // Attack campaigns (the `attack` directive).
  std::optional<net::AttackCampaign> campaign;
  if (!scenario.attacks.empty()) {
    campaign.emplace(net);
    for (const auto& decl : scenario.attacks) {
      net::AttackSpec spec;
      spec.kind = *net::attack_kind_from_string(decl.kind);
      spec.at = decl.at;
      spec.duration = decl.duration;
      spec.ingress = id_of(decl.ingress);
      spec.rate_pps = decl.rate_pps;
      spec.seed = decl.seed;
      if (!decl.dst.empty()) {
        spec.dst = *mpls::Ipv4Address::parse(decl.dst);
      }
      spec.cos = decl.cos;
      campaign->launch(spec);
    }
  }

  // Traffic sources (kept alive for the run's duration).
  std::vector<std::unique_ptr<net::TrafficSource>> sources;
  for (const auto& decl : scenario.flows) {
    net::FlowSpec spec;
    spec.flow_id = decl.id;
    spec.ingress = id_of(decl.ingress);
    spec.dst = *mpls::Ipv4Address::parse(decl.dst);
    spec.cos = decl.cos;
    spec.payload_bytes = decl.size;
    spec.start = decl.start;
    spec.stop = decl.stop;
    if (decl.kind == "cbr") {
      sources.push_back(std::make_unique<net::CbrSource>(
          net, spec, &report.flows, decl.interval));
    } else if (decl.kind == "poisson") {
      sources.push_back(std::make_unique<net::PoissonSource>(
          net, spec, &report.flows, decl.rate, decl.seed));
    } else if (decl.kind == "video") {
      sources.push_back(std::make_unique<net::VideoSource>(
          net, spec, &report.flows, 1.0 / decl.fps, decl.ppf));
    } else {
      sources.push_back(std::make_unique<net::OnOffSource>(
          net, spec, &report.flows, decl.rate, decl.mean_on, decl.mean_off,
          decl.seed));
    }
    sources.back()->start();
  }

  // Failure / restoration events.
  for (const auto& decl : scenario.link_events) {
    const auto a = id_of(decl.a);
    const auto b = id_of(decl.b);
    const bool up = decl.up;
    net.events().schedule_at(decl.at, [&net, a, b, up] {
      net.set_connection_up(a, b, up);
    });
  }

  // Scripted faults beyond plain fail/restore: self-healing flaps,
  // whole-node crashes and information-base corruptions.
  std::optional<net::FaultInjector> injector;
  if (!scenario.flaps.empty() || !scenario.crashes.empty() ||
      !scenario.corruptions.empty()) {
    injector.emplace(net, cp);
    for (const auto& decl : scenario.flaps) {
      injector->inject(net::FaultSpec{net::FaultKind::kFlap, decl.at,
                                      id_of(decl.a), id_of(decl.b),
                                      decl.down_for, 0});
    }
    for (const auto& decl : scenario.crashes) {
      injector->inject(net::FaultSpec{net::FaultKind::kCrash, decl.at,
                                      id_of(decl.node), 0, decl.duration,
                                      0});
    }
    for (const auto& decl : scenario.corruptions) {
      injector->inject(net::FaultSpec{net::FaultKind::kCorrupt, decl.at,
                                      id_of(decl.node), 0, decl.resync,
                                      decl.salt});
    }
  }

  // OAM probes (ping / traceroute directives).  Results are collected
  // as report lines; the Oam agent must outlive the run.
  std::optional<net::Oam> oam;
  if (!scenario.oam_probes.empty()) {
    oam.emplace(net);
    for (const auto& decl : scenario.oam_probes) {
      const auto ingress = id_of(decl.ingress);
      const auto dst = *mpls::Ipv4Address::parse(decl.dst);
      const std::string tag =
          (decl.traceroute ? "traceroute " : "ping ") + decl.ingress +
          " -> " + decl.dst;
      net.events().schedule_at(decl.at, [&net, &report, &oam, ingress, dst,
                                         tag, traceroute =
                                             decl.traceroute] {
        if (traceroute) {
          oam->lsp_traceroute(ingress, dst, [&net, &report, tag](
                                                const auto& r) {
            std::string line = tag + ":";
            for (const auto& hop : r.hops) {
              line += " " + net.node(hop.node).name() +
                      (hop.is_egress ? "[egress]" : "");
            }
            line += r.complete ? " (complete)" : " (incomplete)";
            report.oam_results.push_back(std::move(line));
          });
        } else {
          oam->lsp_ping(ingress, dst, [&net, &report, tag](const auto& r) {
            std::string line = tag + ": ";
            if (r.reachable) {
              line += "reachable via " + net.node(*r.egress).name();
            } else if (r.discarded_at) {
              line += "FAILED at " + net.node(*r.discarded_at).name() +
                      " (" + r.discard_reason + ")";
            } else {
              line += "FAILED (" + r.discard_reason + ")";
            }
            report.oam_results.push_back(std::move(line));
          });
        }
      });
    }
  }

  // Automatic restoration (the `autorepair` directive).
  std::optional<net::FailureDetector> detector;
  if (scenario.autorepair_hello) {
    detector.emplace(net, cp, *scenario.autorepair_hello,
                     scenario.autorepair_dead);
    detector->watch_all();
    if (protection) {
      // Hello detection becomes the slow backstop; the filter it gains
      // keeps restoration off LSPs already switched at their PLR.
      protection->arm(*detector);
    }
    detector->start(scenario.run_duration.value_or(
        *scenario.autorepair_hello * 1000));
  }

  // Timeline ticks: pre-scheduled at every multiple of the interval
  // inside the run window (multiplication, not accumulation, so long
  // runs don't drift).  Pre-scheduling — rather than self-rescheduling —
  // keeps the post-window drain (`net.run()` to idle) from being held
  // open forever by the sampler itself.  Each tick refreshes the
  // registry from the live simulation, then samples the deltas.
  if (timeline) {
    const net::SimTime dt = *scenario.sample_interval;
    const net::SimTime dur = *scenario.run_duration;  // parser-guaranteed
    const auto ticks = static_cast<std::uint64_t>(dur / dt + 1e-9);
    for (std::uint64_t k = 1; k <= ticks; ++k) {
      net.events().schedule_at(
          dt * static_cast<double>(k), [&net, m = metrics.get(), tl = &*timeline] {
            net.export_metrics(*m);
            tl->sample(*m, net.now());
          });
    }
  }

  if (scenario.run_duration) {
    net.run_until(*scenario.run_duration);
    net.run();  // drain in-flight packets
  } else {
    net.run();
  }
  report.duration = net.now();
  report.sim = net.sim_stats();
  if (const net::DomainRuntime* drt = net.domain_runtime()) {
    report.domain_handoffs = drt->handoffs_in_sum();
    report.domain_windows = drt->windows_sum();
  }
  if (detector) {
    report.failures_detected = detector->events().size();
    for (const auto& event : detector->events()) {
      report.lsps_rerouted += event.rerouted;
    }
  }
  if (protection) {
    report.protection_switches = protection->switches();
    report.protection_reverts = protection->reverts();
  }
  if (injector) {
    for (const auto& rec : injector->records()) {
      report.corruptions_injected += rec.corrupted ? 1 : 0;
      report.resyncs_repaired += rec.resynced;
    }
  }
  if (ledger) {
    LoadGenSummary s;
    s.sent = ledger->sent_total();
    s.delivered = ledger->delivered_total();
    s.drops = accountant->drops_in_range(net::kLoadGenFlowBase,
                                         net::kAttackFlowBase);
    for (const auto& gen : generators) {
      s.flows_started += gen->stats().flows_started;
      s.flows_completed += gen->stats().flows_completed;
    }
    s.p99_s = ledger->latency_quantile_s(0.99);
    s.p999_s = ledger->latency_quantile_s(0.999);
    s.conserved = ledger->conserved(*accountant);
    report.loadgen = s;
  }
  if (campaign) {
    const auto& records = campaign->records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& rec = records[i];
      AttackRow row;
      row.kind = std::string(net::to_string(rec.spec.kind));
      row.at = rec.spec.at;
      row.injected = rec.injected;
      row.delivered = attack_delivered[i];
      row.drops = accountant->drops_in_range(rec.flow_id, rec.flow_id + 1);
      report.attacks.push_back(std::move(row));
    }
  }
  for (const auto& decl : scenario.routers) {
    const auto& router = net.node_as<EmbeddedRouter>(id_of(decl.name));
    if (router.guard_enabled()) {
      report.guard_armed = true;
      const auto& g = router.guard_stats();
      report.guard.reserved_drops += g.reserved_drops;
      report.guard.spoof_drops += g.spoof_drops;
      report.guard.ttl_limited += g.ttl_limited;
      report.guard.reprogram_refusals += g.reprogram_refusals;
      report.guard.demoted += g.demoted;
      report.guard.shed += g.shed;
      report.guard.admitted += g.admitted;
    }
  }

  for (const auto& decl : scenario.routers) {
    const auto& router = net.node_as<EmbeddedRouter>(id_of(decl.name));
    const auto& s = router.stats();
    report.routers.push_back(RouterRow{decl.name, s.received, s.forwarded,
                                       s.delivered_local, s.discarded,
                                       s.engine_cycles,
                                       router.flow_cache_enabled(),
                                       router.cache_stats()});
  }
  for (const auto& decl : scenario.links) {
    // Report both directions of each declared connection.
    for (const auto& [from, to] :
         {std::pair{decl.a, decl.b}, std::pair{decl.b, decl.a}}) {
      for (const auto& adj : net.adjacency(id_of(from))) {
        if (adj.neighbor != id_of(to)) {
          continue;
        }
        const auto& link = net.link_from(id_of(from), adj.port);
        report.links.push_back(LinkRow{
            from, to, link.utilization(), link.stats().tx_packets,
            link.queue().total_stats().dropped});
        break;
      }
    }
  }

  // One snapshot pass collects everything the simulation registered —
  // simulator, router, flow-cache, link and drop counters; instruments
  // added anywhere below appear here without this function changing.
  net.export_metrics(*metrics);
  for (const auto& [flow_id, flow] : report.flows.flows()) {
    const std::string label = "flow=\"" + std::to_string(flow_id) + "\"";
    metrics->counter("empls_flow_sent_total", label).set(flow.sent);
    metrics->counter("empls_flow_delivered_total", label)
        .set(flow.delivered);
    metrics->gauge("empls_flow_mean_latency_seconds", label)
        .set(flow.latency.mean());
    metrics->gauge("empls_flow_jitter_seconds", label).set(flow.jitter);
  }
  report.drops = net.drop_totals();
  report.metrics = metrics;

  if (timeline) {
    report.timeline_samples = timeline->sample_count();
    report.timeline_series = timeline->column_count();
  }

  // `expect` verdicts: windowed assertions check every timeline sample
  // inside [t0, t1]; unwindowed ones the end-of-run registry value.
  for (const net::ExpectDecl& e : scenario.expects) {
    ExpectRow row;
    row.text = e.source;
    if (e.windowed) {
      // Parser guarantees a sample interval, so `timeline` is engaged.
      const auto col = timeline->column_index(e.metric);
      if (!col) {
        row.detail = "unknown timeline series: " + e.metric;
      } else {
        std::size_t checked = 0;
        row.passed = true;
        for (std::size_t r = 0; r < timeline->sample_count(); ++r) {
          const double t = timeline->time_at(r);
          if (t < e.t0 - 1e-9 || t > e.t1 + 1e-9) {
            continue;
          }
          ++checked;
          const double v = timeline->value_at(r, *col);
          if (!check_op(v, e.op, e.value)) {
            row.passed = false;
            row.detail = "violated at t=" + format_value(t) +
                         "s: value=" + format_value(v);
            break;
          }
        }
        if (checked == 0) {
          row.passed = false;
          row.detail = "no samples in window";
        } else if (row.passed) {
          row.detail = std::to_string(checked) + " samples";
        }
      }
    } else {
      const MetricSpec spec = split_metric_spec(e.metric);
      const auto v = registry_value(*metrics, spec);
      if (!v) {
        row.detail = "metric not found: " + e.metric;
      } else {
        row.passed = check_op(*v, e.op, e.value);
        row.detail = "value=" + format_value(*v);
      }
    }
    report.expects.push_back(std::move(row));
  }

  if (timeline && !scenario.timeline_path.empty()) {
    std::ofstream out(scenario.timeline_path);
    if (!out) {
      return semantic_error("cannot write timeline file: " +
                            scenario.timeline_path);
    }
    const std::string& path = scenario.timeline_path;
    if (path.size() > 5 && path.substr(path.size() - 5) == ".json") {
      timeline->write_json(out);
    } else {
      timeline->write_csv(out);
    }
  }

  if (!scenario.metrics_path.empty()) {
    std::ofstream out(scenario.metrics_path);
    if (!out) {
      return semantic_error("cannot write metrics file: " +
                            scenario.metrics_path);
    }
    metrics->write_prometheus(out);
  }
  if (tracer) {
    std::ofstream out(scenario.trace_path);
    if (!out) {
      return semantic_error("cannot write trace file: " +
                            scenario.trace_path);
    }
    net.write_chrome_trace(out);
  }
  return report;
}

std::variant<ScenarioRunner::Report, net::ScenarioError>
ScenarioRunner::run_text(std::string_view text) {
  auto parsed = net::Scenario::parse(text);
  if (std::holds_alternative<net::ScenarioError>(parsed)) {
    return std::get<net::ScenarioError>(parsed);
  }
  return run(std::get<net::Scenario>(parsed));
}

std::string ScenarioRunner::Report::to_string() const {
  std::ostringstream out;
  out << "simulated " << duration << " s, " << lsps_established << " LSPs, "
      << tunnels_established << " tunnels\n";
  out << "simulator: " << sim.summary() << '\n';
  if (domains > 1) {
    out << "domains: " << domains << " sync=" << sync_mode
        << " handoffs=" << domain_handoffs;
    if (domain_windows > 0) {
      out << " windows=" << domain_windows;
    }
    if (domain_traced) {
      out << " trace=merged";
    }
    out << '\n';
  }
  if (!domain_note.empty()) {
    out << "domains: " << domain_note << '\n';
  }
  if (timeline_samples > 0) {
    out << "timeline: " << timeline_samples << " samples x "
        << timeline_series << " series\n";
  }
  if (!expects.empty()) {
    out << "slo:\n";
    for (const auto& e : expects) {
      out << "  " << (e.passed ? "PASS" : "FAIL") << " expect " << e.text;
      if (!e.detail.empty()) {
        out << " (" << e.detail << ')';
      }
      out << '\n';
    }
  }
  if (backups_installed > 0 || protection_switches > 0) {
    out << "protection: backups=" << backups_installed
        << " switches=" << protection_switches
        << " reverts=" << protection_reverts << '\n';
  }
  if (corruptions_injected > 0 || resyncs_repaired > 0) {
    out << "faults: corruptions=" << corruptions_injected
        << " resynced=" << resyncs_repaired << '\n';
  }
  std::uint64_t total_drops = 0;
  for (const auto d : drops) {
    total_drops += d;
  }
  if (total_drops > 0) {
    out << "drops:";
    for (std::size_t i = 0; i < obs::kDropReasonCount; ++i) {
      if (drops[i] > 0) {
        out << ' ' << obs::to_string(static_cast<obs::DropReason>(i)) << '='
            << drops[i];
      }
    }
    out << '\n';
  }
  if (guard_armed) {
    out << "guard: reserved=" << guard.reserved_drops
        << " spoof=" << guard.spoof_drops << " ttl=" << guard.ttl_limited
        << " reprogram=" << guard.reprogram_refusals
        << " demoted=" << guard.demoted << " shed=" << guard.shed
        << " admitted=" << guard.admitted << '\n';
  }
  if (loadgen) {
    out << "loadgen: sent=" << loadgen->sent
        << " delivered=" << loadgen->delivered
        << " drops=" << loadgen->drops
        << " flows=" << loadgen->flows_started << '/'
        << loadgen->flows_completed << " p99=" << loadgen->p99_s
        << "s p999=" << loadgen->p999_s << "s"
        << (loadgen->conserved ? " (conserved)" : " (NOT CONSERVED)")
        << '\n';
  }
  if (!attacks.empty()) {
    out << "attacks:\n";
    for (const auto& a : attacks) {
      out << "  " << a.kind << " @" << a.at << "s: injected=" << a.injected
          << " delivered=" << a.delivered << " dropped=" << a.drops << '\n';
    }
  }
  out << "\nflows:\n" << flows.summary() << "\nrouters:\n";
  for (const auto& r : routers) {
    out << "  " << r.name << ": rx=" << r.received << " fwd=" << r.forwarded
        << " local=" << r.delivered << " drop=" << r.discarded
        << " engine_cycles=" << r.engine_cycles << '\n';
    if (r.cache_enabled) {
      out << "    cache: " << r.cache.summary() << '\n';
    }
  }
  if (!oam_results.empty()) {
    out << "\noam:\n";
    for (const auto& line : oam_results) {
      out << "  " << line << '\n';
    }
  }
  out << "\nlinks:\n";
  for (const auto& l : links) {
    out << "  " << l.from << " -> " << l.to << ": util="
        << l.utilization * 100.0 << "% tx=" << l.tx_packets
        << " qdrop=" << l.queue_drops << '\n';
  }
  return out.str();
}

}  // namespace empls::core
