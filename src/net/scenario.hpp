// Scenario description language: a small line-oriented text format that
// declares a topology, label switched paths and traffic, so whole
// experiments can be written as config files instead of C++ (see
// examples/scenario_sim.cpp and examples/*.scn).  The grammar is in
// docs/SCENARIO.md; scenario_directives() below is the directive list
// the parser dispatches on and the tests check that grammar against.
//
// This header is the pure data model + parser; execution lives in
// core/scenario_runner.hpp (the runner needs the router classes).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "mpls/fec.hpp"
#include "net/event_queue.hpp"
#include "net/guard.hpp"
#include "net/qos.hpp"

namespace empls::net {

// Fixed-underlying-type forward declaration; the full enum (and the
// runtime it configures) lives in net/domain.hpp.
enum class SyncMode : std::uint8_t;

struct ScenarioError {
  int line = 0;
  std::string message;
};

/// A router's `engine=` value, decoded once by the parser.
struct EngineDecl {
  /// The first four are spelled by kEngineNames, in this order.
  enum class Kind : std::uint8_t { kLinear, kCam, kTrie, kHw, kSharded };
  Kind kind = Kind::kLinear;
  /// Parallel worker shards of `sharded:<N>` (1..64); 0 otherwise.
  unsigned shards = 0;
  /// `sharded:<N>:trie`: the shards run trie replicas, not linear ones.
  bool trie_replicas = false;
};

/// The plain `engine=` keywords the parser picks from (`sharded:<N>`
/// is spelled apart).
inline constexpr std::array<std::string_view, 4> kEngineNames = {
    "linear", "cam", "trie", "hw"};
static_assert(kEngineNames.size() ==
              static_cast<std::size_t>(EngineDecl::Kind::kSharded));

struct RouterDecl {
  std::string name;
  bool is_ler = false;
  EngineDecl engine;
  double clock_hz = 50e6;
  /// Engine batch size (`batch=K`); 0 = engine default (16 for sharded
  /// engines, per-packet service otherwise).
  std::size_t batch = 0;
  /// Flow-cache entries (`cache=<entries>`, `cache=off` → 0 = off).
  std::size_t cache = 0;
};

struct LinkDecl {
  std::string a;
  std::string b;
  double bandwidth_bps = 0;
  SimTime delay = 0;
};

struct LspDecl {
  mpls::Prefix fec;
  std::vector<std::string> path;  // explicit route, or {ingress, egress}
  bool cspf = false;
  double bw = 0;
  bool php = false;
  bool merge = false;
  int line = 0;  // source line, for the runner's diagnostics
};

struct TunnelDecl {
  std::string name;
  std::vector<std::string> path;
  int line = 0;  // source line, for the runner's diagnostics
};

struct LspViaTunnelDecl {
  mpls::Prefix fec;
  std::vector<std::string> pre;
  std::string tunnel;
  std::vector<std::string> post;
  double bw = 0;
  int line = 0;  // source line, for the runner's diagnostics
};

struct FlowDecl {
  std::string kind;  // cbr | poisson | video | onoff
  std::uint32_t id = 0;
  std::string ingress;
  std::string dst;  // dotted quad
  std::uint8_t cos = 0;
  std::size_t size = 160;
  SimTime start = 0;
  SimTime stop = 1.0;
  // kind-specific:
  SimTime interval = 20e-3;  // cbr
  double rate = 100;         // poisson / onoff packets per second
  std::uint64_t seed = 1;    // poisson / onoff
  double fps = 30;           // video frames per second
  unsigned ppf = 8;          // video packets per frame
  SimTime mean_on = 50e-3;   // onoff
  SimTime mean_off = 50e-3;  // onoff
};

struct LinkEventDecl {
  SimTime at = 0;
  std::string a;
  std::string b;
  bool up = false;
};

/// `flap <time> <a> <b> <down-for>`: a cut that heals by itself —
/// shorter than the dead interval it must not trigger restoration.
struct FlapDecl {
  SimTime at = 0;
  std::string a;
  std::string b;
  SimTime down_for = 0;
};

/// `crash <time> <node> [for=dur]`: every connection of `node` goes
/// dark at once; recovers after `for` (0 = stays dead).
struct CrashDecl {
  SimTime at = 0;
  std::string node;
  SimTime duration = 0;
};

/// `corrupt <time> <node> [salt=N] [resync=dur]`: garble one programmed
/// information-base binding (single-event upset); the audit-and-repair
/// pass runs after `resync` (0 = never).
struct CorruptDecl {
  SimTime at = 0;
  std::string node;
  std::uint64_t salt = 0;
  SimTime resync = 0;
};

/// `loadgen poisson|mmpp <ingress> <dst> [opts]`: open-loop offered
/// load at scale (net/loadgen.hpp); the runner assigns each generator
/// its own flow-id block and one shared FlowLedger.
struct LoadGenDecl {
  std::string kind;  // poisson | mmpp
  std::string ingress;
  std::string dst;  // dotted quad
  double rate_pps = 10000;
  double burst_rate_pps = 0;  // mmpp burst state; 0 = 4x rate
  SimTime sojourn = 100e-3;   // mmpp mean state dwell
  std::size_t flows = 1024;
  double alpha = 1.5;
  unsigned min_packets = 4;
  std::uint8_t cos = 0;
  std::size_t size = 160;
  std::uint64_t seed = 1;
  SimTime start = 0;
  SimTime stop = 1.0;
};

/// `attack <kind> <time> <ingress> [opts]` (kind also spelled
/// `attack=<kind>`): one seeded adversarial injection (net/attack.hpp).
struct AttackDecl {
  std::string kind;  // spoof | ttl_flood | reserved | exhaust
  SimTime at = 0;
  std::string ingress;
  double rate_pps = 10000;
  SimTime duration = 0.5;
  std::uint64_t seed = 1;
  std::string dst;  // optional victim address (ttl_flood / exhaust)
  std::uint8_t cos = 7;
};

/// `guard <router>|* [opts]`: arm the ingress guard on one router (or
/// every router) with the given thresholds.
struct GuardDecl {
  std::string router;  // "*" = all routers
  GuardConfig config;  // parsed with enabled=true
};

/// `ping <time> <ingress> <dst>` / `traceroute <time> <ingress> <dst>`:
/// run an OAM probe during the simulation; results appear in the report.
struct OamDecl {
  SimTime at = 0;
  bool traceroute = false;
  std::string ingress;
  std::string dst;
};

/// `expect <metric> <op> <value> [during <t0>..<t1>]`: an SLO assertion
/// the runner checks at run end.  Windowed assertions check every
/// timeline sample whose time falls in [t0, t1] (and fail when the
/// window holds no samples); unwindowed ones check the end-of-run
/// registry value.  Violations mark the report failed (see
/// Report::expects) and the scenario driver exits non-zero.
struct ExpectDecl {
  enum class Op : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };
  /// name[{labels}] plus an optional .p50/.p99/.p999/.count suffix for
  /// histogram series, matching the timeline's column names.
  std::string metric;
  Op op = Op::kLt;
  double value = 0;
  bool windowed = false;
  SimTime t0 = 0;
  SimTime t1 = 0;
  int line = 0;        // source line, for diagnostics
  std::string source;  // the directive text, echoed in the report
};

[[nodiscard]] std::string_view to_string(ExpectDecl::Op op) noexcept;

class Scenario {
 public:
  /// Parse scenario text; ScenarioError carries the offending line.
  static std::variant<Scenario, ScenarioError> parse(std::string_view text);

  QosConfig qos;
  /// `domains <N>|auto` (or `domains=..`): partition the topology into
  /// N event domains (net/domain.hpp).  1 (the default) runs the plain
  /// single-queue simulator; 0 means "auto" — one domain per hardware
  /// thread, capped by the node count.  The runner may downgrade (see
  /// Report::domain_note) when a directive requires it.
  std::size_t domains = 1;
  /// `sync deterministic|free` (or `sync=..`): how partitioned domains
  /// synchronise.  Deterministic merges events in global (time, domain)
  /// order — books identical to the unpartitioned run; free runs one
  /// thread per domain under conservative-lookahead windows.
  SyncMode sync = SyncMode{0};  // kDeterministic
  std::vector<RouterDecl> routers;
  std::vector<LinkDecl> links;
  std::vector<LspDecl> lsps;
  std::vector<TunnelDecl> tunnels;
  std::vector<LspViaTunnelDecl> tunnel_lsps;
  /// `police <ingress> <flow-id> <rate> [burst=1500] [demote]`.
  struct PolicerDecl {
    std::string ingress;
    std::uint32_t flow_id = 0;
    double rate_bps = 0;
    double burst_bytes = 1500;
    bool demote = false;
  };

  std::vector<FlowDecl> flows;
  std::vector<LinkEventDecl> link_events;
  std::vector<FlapDecl> flaps;
  std::vector<CrashDecl> crashes;
  std::vector<CorruptDecl> corruptions;
  std::vector<OamDecl> oam_probes;
  std::vector<PolicerDecl> policers;
  std::vector<LoadGenDecl> loadgens;
  std::vector<AttackDecl> attacks;
  std::vector<GuardDecl> guards;
  std::optional<SimTime> run_duration;
  /// `autorepair <hello_interval> [dead=N]`: arm a failure detector
  /// over all links that reroutes LSPs off dead connections.
  std::optional<SimTime> autorepair_hello;
  unsigned autorepair_dead = 3;
  /// `protect [bw=X]`: pre-signal RFC 4090 detours for every explicit
  /// LSP and switch locally on link-down.
  bool protect = false;
  double protect_bw = 0;
  /// `trace <path>` (or `trace=<path>`): arm the hop tracer and write
  /// Chrome-trace JSON there after the run.  "off" / unset disables —
  /// and must leave the simulation bit-identical to one never traced.
  std::string trace_path;
  /// `metrics <path>` (or `metrics=<path>`): write a Prometheus
  /// text-format snapshot of the metrics registry there after the run.
  std::string metrics_path;
  /// `sample <interval>` (or `sample=..`): arm the telemetry timeline
  /// (obs/timeline.hpp) at this sim-time cadence.  Requires a `run`
  /// duration — the runner pre-schedules the ticks.  Unset = off.
  std::optional<SimTime> sample_interval;
  /// `timeline <path>` (or `timeline=..`): write the sampled series
  /// there after the run; a ".json" suffix selects the column-major
  /// JSON export, anything else CSV.  "off" / unset writes nothing
  /// (the series still feed `expect during` checks).
  std::string timeline_path;
  /// `profile [on|off]`: arm the per-domain execution profiler
  /// (DomainRuntime::PhaseProfile; needs domains > 1 to report).
  bool profile = false;
  /// `expect ...` assertions, in declaration order.
  std::vector<ExpectDecl> expects;

  [[nodiscard]] bool has_router(const std::string& name) const;

  /// Whether parse() read a control-plane directive (a fault, OAM
  /// probe, attack, `autorepair` or `protect`): such a run schedules
  /// work that touches other domains' links and nodes, so a partitioned
  /// run must use sync=deterministic.
  [[nodiscard]] bool control_plane() const noexcept { return control_plane_; }

 private:
  bool control_plane_ = false;  // written only by parse()
};

struct ScenarioParser;  // the state of one Scenario::parse call

/// One directive of the scenario language.  scenario_directives() is
/// the language's one directive list: Scenario::parse dispatches on it,
/// and the tests derive the fuzzer's verbs from it and check
/// docs/SCENARIO.md's grammar against it.
struct ScenarioDirective {
  std::string_view name;
  /// `name=value rest...` is also accepted, as `name value rest...`.
  bool assign = false;
  /// Bounds on the argument count after the name, and the argument
  /// grammar the arity error echoes.
  std::size_t min_args = 0;
  std::size_t max_args = 0;
  std::string_view usage;
  /// Makes Scenario::control_plane() true.
  bool control_plane = false;
  /// Reads the arguments into the scenario; false with an error
  /// message recorded in the parser state.
  bool (*parse)(ScenarioParser&) = nullptr;
};

[[nodiscard]] std::span<const ScenarioDirective> scenario_directives() noexcept;

/// "100M" → 1e8, "2.5G" → 2.5e9, "64k" → 64000, bare number → bits/s.
std::optional<double> parse_bandwidth(std::string_view text);

/// "20ms" → 0.02, "50us" → 5e-5, "1s"/"1" → 1.0, "3ns" → 3e-9.
std::optional<SimTime> parse_time(std::string_view text);

}  // namespace empls::net
