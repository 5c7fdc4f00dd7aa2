// Executes a parsed net::Scenario: builds routers and links, signs the
// declared LSPs, arms the traffic sources and failure events, runs the
// simulation, and produces a per-flow / per-router / per-link report.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/embedded_router.hpp"
#include "net/ldp.hpp"
#include "net/scenario.hpp"
#include "net/stats.hpp"
#include "net/traffic.hpp"
#include "obs/drop_reason.hpp"
#include "obs/metrics.hpp"

namespace empls::core {

class ScenarioRunner {
 public:
  struct RouterRow {
    std::string name;
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t discarded = 0;
    std::uint64_t engine_cycles = 0;
    /// Flow-cache probe counters; all zero when `cache=` is off (the
    /// report prints the cache line only for routers that have one).
    bool cache_enabled = false;
    net::FlowCacheStats cache;
  };

  struct LinkRow {
    std::string from;
    std::string to;
    double utilization = 0;      // busy fraction of the run
    std::uint64_t tx_packets = 0;
    std::uint64_t queue_drops = 0;
  };

  /// Aggregate over every `loadgen` directive (one shared FlowLedger).
  struct LoadGenSummary {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t drops = 0;  // attributed to loadgen flow ids
    std::uint64_t flows_started = 0;
    std::uint64_t flows_completed = 0;
    double p99_s = 0;   // delivery latency quantiles (bucket resolution)
    double p999_s = 0;
    /// Exact conservation over every open-loop flow:
    /// sent == delivered + accounted drops.
    bool conserved = true;
  };

  /// One row per `attack` directive, books closed after the run.
  struct AttackRow {
    std::string kind;
    net::SimTime at = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;  // attack packets that got through
    std::uint64_t drops = 0;      // attributed to the attack's flow id
  };

  /// One `expect` directive's verdict: the echoed directive text, the
  /// pass/fail bit, and a detail line (observed value, or the violating
  /// sample for windowed assertions).
  struct ExpectRow {
    std::string text;
    bool passed = false;
    std::string detail;
  };

  struct Report {
    net::FlowStats flows;
    std::vector<RouterRow> routers;
    std::vector<LinkRow> links;
    std::uint64_t lsps_established = 0;
    std::uint64_t tunnels_established = 0;
    std::uint64_t failures_detected = 0;  // autorepair events
    std::uint64_t lsps_rerouted = 0;
    std::uint64_t backups_installed = 0;     // protect: detours signed
    std::uint64_t protection_switches = 0;   // PLR flips onto a detour
    std::uint64_t protection_reverts = 0;    // flips back after recovery
    std::uint64_t corruptions_injected = 0;  // corrupt directives that hit
    std::uint64_t resyncs_repaired = 0;      // divergent entries fixed
    std::vector<std::string> oam_results;  // one line per ping/traceroute
    /// Present when the scenario declared `loadgen` directives.
    std::optional<LoadGenSummary> loadgen;
    /// One row per `attack` directive, in declaration order.
    std::vector<AttackRow> attacks;
    /// Guard refusals summed over every guarded router (all zero when
    /// no `guard` directive armed one).
    net::GuardStats guard{};
    bool guard_armed = false;
    net::SimTime duration = 0;
    /// Simulator fast-path counters (event queue + packet pool).
    net::SimStats sim;
    /// Partitioned execution (net/domain.hpp): the domain count the run
    /// actually used (1 = unpartitioned), the sync mode, and why the
    /// runner downgraded the scenario's request, if it did.  Handoffs
    /// count packets that crossed a domain boundary; windows count
    /// lookahead windows entered (free-running mode only).
    std::size_t domains = 1;
    std::string sync_mode;
    std::string domain_note;
    std::uint64_t domain_handoffs = 0;
    std::uint64_t domain_windows = 0;
    /// Hop tracing ran alongside the partitioned run (deterministic
    /// merge re-keys journeys across boundaries; see the downgrade
    /// matrix in run()).
    bool domain_traced = false;
    /// Timeline sampling (the `sample` directive): rows recorded and
    /// series tracked; zero when unarmed.
    std::size_t timeline_samples = 0;
    std::size_t timeline_series = 0;
    /// `expect` verdicts, declaration order; empty when none declared.
    std::vector<ExpectRow> expects;
    [[nodiscard]] bool expects_passed() const {
      for (const auto& e : expects) {
        if (!e.passed) {
          return false;
        }
      }
      return true;
    }
    /// Per-reason drop totals (router discards + link-level drops),
    /// indexed by obs::DropReason.
    obs::DropCounts drops{};
    /// The run's full metrics snapshot — every counter, gauge and
    /// histogram the simulation registered, in Prometheus-exportable
    /// form.  New instruments added anywhere in the stack appear here
    /// without the runner changing.
    std::shared_ptr<const obs::MetricsRegistry> metrics;

    /// Human-readable summary tables.
    [[nodiscard]] std::string to_string() const;
  };

  /// Build and run `scenario`.  ScenarioError on semantic failures: an
  /// LSP, tunnel or tunnelled LSP that cannot be established (or names
  /// an unknown tunnel) reports its directive's line; an output file
  /// that cannot be written reports line 0.  A partitioned free run is
  /// downgraded to sync=deterministic when the parse recorded a
  /// control-plane directive (Scenario::control_plane()).
  static std::variant<Report, net::ScenarioError> run(
      const net::Scenario& scenario);

  /// Convenience: parse + run.
  static std::variant<Report, net::ScenarioError> run_text(
      std::string_view text);
};

}  // namespace empls::core
