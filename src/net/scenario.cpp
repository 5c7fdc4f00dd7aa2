#include "net/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <type_traits>

#include "net/domain.hpp"

namespace empls::net {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') {
      break;  // trailing comment
    }
    out.push_back(tok);
  }
  return out;
}

std::optional<double> parse_number(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  double v = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return v;
}

/// Split "key=value"; returns nullopt for non-option tokens.
std::optional<std::pair<std::string, std::string>> split_option(
    const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) {
    return std::nullopt;
  }
  return std::make_pair(tok.substr(0, eq), tok.substr(eq + 1));
}

}  // namespace

std::optional<double> parse_bandwidth(std::string_view text) {
  double scale = 1.0;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k':
        scale = 1e3;
        text.remove_suffix(1);
        break;
      case 'M':
        scale = 1e6;
        text.remove_suffix(1);
        break;
      case 'G':
        scale = 1e9;
        text.remove_suffix(1);
        break;
      default:
        break;
    }
  }
  const auto v = parse_number(text);
  if (!v || *v <= 0) {
    return std::nullopt;
  }
  return *v * scale;
}

std::optional<SimTime> parse_time(std::string_view text) {
  double scale = 1.0;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1e-3;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    scale = 1e-6;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ns") {
    scale = 1e-9;
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    text.remove_suffix(1);
  }
  const auto v = parse_number(text);
  if (!v || *v < 0) {
    return std::nullopt;
  }
  return *v * scale;
}

std::string_view to_string(ExpectDecl::Op op) noexcept {
  switch (op) {
    case ExpectDecl::Op::kLt:
      return "<";
    case ExpectDecl::Op::kLe:
      return "<=";
    case ExpectDecl::Op::kGt:
      return ">";
    case ExpectDecl::Op::kGe:
      return ">=";
    case ExpectDecl::Op::kEq:
      return "==";
    case ExpectDecl::Op::kNe:
      return "!=";
  }
  return "?";
}

bool Scenario::has_router(const std::string& name) const {
  return std::any_of(routers.begin(), routers.end(),
                     [&](const RouterDecl& r) { return r.name == name; });
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kMany = std::numeric_limits<std::size_t>::max();

/// How a numeric argument is spelled: plain number, time (ms/us/ns/s
/// suffixes) or rate (k/M/G suffixes; also bandwidths and clocks).
enum Unit : std::uint8_t { kNumber, kTime, kRate };

/// The finite values a numeric argument accepts (`value` rejects NaN
/// and infinities before the range check).
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;  // lo itself is rejected
  bool integer = false;  // the value must convert to the field exactly
};

constexpr Range kAny{};
constexpr Range kNonNegative{.lo = 0};
constexpr Range kPositive{.lo = 0, .lo_open = true};
constexpr Range kAtLeastOne{.lo = 1};
constexpr Range kCos{.lo = 0, .hi = 7};
constexpr Range kFraction{.lo = 0, .hi = 1};
/// Scripted flow ids stay below the loadgen, attack and OAM blocks,
/// which the runner books separately.
constexpr Range kUserFlowId{.lo = 0, .hi = kLoadGenFlowBase - 1.0};

struct Option;

}  // namespace

struct ScenarioParser {
  Scenario& s;
  std::string_view directive{};     // the directive being parsed ...
  int line = 0;                     // ... its source line ...
  std::vector<std::string> args{};  // ... and its arguments
  std::string error{};
  int sample_line = 0;  // where `sample` / `timeline` were declared, for
  int timeline_line = 0;  // the cross-directive checks after the last line

  bool fail(std::string message) {
    error = std::move(message);
    return false;
  }

  /// `text` as a number in `unit`, range-checked, into `out`.
  template <typename T>
  bool value(std::string_view what, const std::string& text, Unit unit,
             Range range, T& out) {
    const std::optional<double> v = unit == kTime   ? parse_time(text)
                                    : unit == kRate ? parse_bandwidth(text)
                                                    : parse_number(text);
    bool ok = v && std::isfinite(*v) &&
              !(*v < range.lo || *v > range.hi ||
                (range.lo_open && *v <= range.lo));
    if constexpr (std::is_integral_v<T>) {
      // Bound by the field's type before any cast: casting a double the
      // type cannot hold is undefined behaviour.  2^digits is exact as a
      // double (uint64_t's maximum rounds up to it), so `>=` is exact.
      using Limits = std::numeric_limits<T>;
      ok = ok && !(*v < static_cast<double>(Limits::min()) ||
                   *v >= std::ldexp(1.0, Limits::digits));
      ok = ok && !(range.integer &&
                   *v != static_cast<double>(static_cast<T>(*v)));
    }
    if (!ok) {
      return fail("bad " + std::string(what) + ": " + text);
    }
    out = static_cast<T>(*v);
    return true;
  }

  /// `text` as the index of one of `names`; the error lists them.
  bool pick(const std::string& text, std::string_view what,
            std::span<const std::string_view> names, std::size_t& out) {
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end()) {
      std::string message = "unknown " + std::string(what) + ": " + text;
      for (const std::string_view& n : names) {
        message += &n == names.data() ? " (" : "|";
        message += n;
      }
      return fail(message + ")");
    }
    out = static_cast<std::size_t>(it - names.begin());
    return true;
  }
  bool pick(const std::string& text, std::string_view what,
            std::initializer_list<std::string_view> names, std::size_t& out) {
    return pick(text, what, {names.begin(), names.size()}, out);
  }

  /// `name` must be a router declared on an earlier line.
  bool router(const std::string& name, std::string& out) {
    if (!s.has_router(name)) {
      return fail(std::string(directive) +
                  " references undeclared router: " + name);
    }
    out = name;
    return true;
  }

  bool address(const std::string& text, mpls::Ipv4Address& out) {
    const auto addr = mpls::Ipv4Address::parse(text);
    if (!addr) {
      return fail("bad destination address: " + text);
    }
    out = *addr;
    return true;
  }

  bool prefix(const std::string& text, mpls::Prefix& out) {
    const auto fec = mpls::Prefix::parse(text);
    if (!fec) {
      return fail("bad prefix: " + text);
    }
    out = *fec;
    return true;
  }

  /// `<path>|off`: "off" clears the path.
  bool path(std::string& out) {
    out = args[0] == "off" ? "" : args[0];
    return true;
  }

  /// `token` as one of `opts`: a `key=value` option or a bare flag.
  bool option(const std::string& token, std::initializer_list<Option> opts);

  /// args[first..] as options.
  bool options(std::size_t first, std::initializer_list<Option> opts) {
    for (std::size_t i = first; i < args.size(); ++i) {
      if (!option(args[i], opts)) {
        return false;
      }
    }
    return true;
  }
};

namespace {

/// One `key=value` option of a directive, or a bare flag word.
struct Option {
  std::string_view key;
  std::function<bool(ScenarioParser&, const std::string& value)> set;
  bool flag = false;
};

template <typename T>
Option opt(std::string_view key, Unit unit, T& field, Range range = kAny) {
  return {key, [key, unit, range, &field](ScenarioParser& p,
                                          const std::string& v) {
            return p.value(key, v, unit, range, field);
          }};
}

Option flag(std::string_view key, bool& field) {
  return {key,
          [&field](ScenarioParser&, const std::string&) {
            field = true;
            return true;
          },
          true};
}

Option on_off(std::string_view key, bool& field) {
  return {key, [key, &field](ScenarioParser& p, const std::string& v) {
            std::size_t k = 0;
            if (!p.pick(v, key, {"on", "off"}, k)) {
              return false;
            }
            field = k == 0;
            return true;
          }};
}

}  // namespace

bool ScenarioParser::option(const std::string& token,
                            std::initializer_list<Option> opts) {
  const auto kv = split_option(token);
  const auto it = std::find_if(opts.begin(), opts.end(), [&](const auto& o) {
    return o.flag == !kv && o.key == (kv ? kv->first : token);
  });
  if (it == opts.end()) {
    return fail("unknown " + std::string(directive) + " option: " + token);
  }
  return it->set(*this, kv ? kv->second : token);
}

namespace {

bool parse_qos(ScenarioParser& p) {
  for (const std::string& t : p.args) {
    if (t == "strict") {
      p.s.qos.scheduler = SchedulerKind::kStrictPriority;
    } else if (t == "fifo") {
      p.s.qos.scheduler = SchedulerKind::kFifo;
    } else if (t == "wrr") {
      p.s.qos.scheduler = SchedulerKind::kWeightedRoundRobin;
    } else if (t == "red") {
      p.s.qos.drop = DropPolicy::kRed;
    } else if (const auto kv = split_option(t); kv && kv->first == "capacity") {
      if (!p.value("qos capacity", kv->second, kNumber, kAtLeastOne,
                   p.s.qos.queue_capacity)) {
        return false;
      }
    } else {
      return p.fail("unknown qos option: " + t);
    }
  }
  return true;
}

bool parse_domains(ScenarioParser& p) {
  if (p.args[0] == "auto") {
    p.s.domains = 0;  // resolved to the hardware thread count at run
    return true;
  }
  return p.value("domains (want 1..256 or auto)", p.args[0], kNumber,
                 {.lo = 1, .hi = 256, .integer = true}, p.s.domains);
}

bool parse_sync(ScenarioParser& p) {
  std::size_t k = 0;
  if (!p.pick(p.args[0], "sync mode", {"deterministic", "free"}, k)) {
    return false;
  }
  p.s.sync = k == 0 ? SyncMode::kDeterministic : SyncMode::kFree;
  return true;
}

bool parse_expect(ScenarioParser& p) {
  const auto& a = p.args;
  ExpectDecl e;
  std::size_t op = 0;
  if (!p.pick(a[1], "expect op", {"<", "<=", ">", ">=", "==", "!="}, op) ||
      !p.value("expect value", a[2], kNumber, kAny, e.value)) {
    return false;
  }
  e.metric = a[0];
  e.op = static_cast<ExpectDecl::Op>(op);  // names listed in enum order
  e.line = p.line;
  e.source = a[0] + " " + a[1] + " " + a[2];
  if (a.size() > 3) {
    const std::string window = a.size() == 5 ? a[4] : "";
    const auto dots = window.find("..");
    if (a[3] != "during" || dots == std::string::npos) {
      return p.fail("expect window needs: during <t0>..<t1>");
    }
    if (!p.value("window start", window.substr(0, dots), kTime, kAny, e.t0) ||
        !p.value("window end", window.substr(dots + 2), kTime, kAny, e.t1)) {
      return false;
    }
    if (e.t1 < e.t0) {
      return p.fail("bad expect window: " + window);
    }
    e.windowed = true;
    e.source += " during " + window;
  }
  p.s.expects.push_back(std::move(e));
  return true;
}

bool parse_router(ScenarioParser& p) {
  RouterDecl r;
  r.name = p.args[0];
  std::size_t type = 0;
  // engine: linear|cam|trie|hw or sharded:<N>[:trie].
  const auto engine = [&r](ScenarioParser& p, const std::string& v) {
    EngineDecl& e = r.engine;
    e = EngineDecl{};
    if (v.rfind("sharded:", 0) == 0) {
      std::string count = v.substr(8);
      std::string replica;
      const auto colon = count.find(':');
      if (colon != std::string::npos) {
        replica = count.substr(colon + 1);
        count.resize(colon);
      }
      std::size_t k = 0;
      e.kind = EngineDecl::Kind::kSharded;
      e.trie_replicas = colon != std::string::npos;
      return p.value("sharded engine count (want 1..64)", count, kNumber,
                     {.lo = 1, .hi = 64, .integer = true}, e.shards) &&
             (!e.trie_replicas ||
              p.pick(replica, "sharded replica", {"trie"}, k));
    }
    std::size_t k = 0;
    if (!p.pick(v, "engine", kEngineNames, k)) {
      return false;
    }
    e.kind = static_cast<EngineDecl::Kind>(k);
    return true;
  };
  const auto cache = [&r](ScenarioParser& p, const std::string& v) {
    r.cache = 0;
    return v == "off" ||
           p.value("cache size (want 1..1048576 or off)", v, kNumber,
                   {.lo = 1, .hi = 1048576, .integer = true}, r.cache);
  };
  if (!p.pick(p.args[1], "router type", {"ler", "lsr"}, type) ||
      !p.options(2, {{"engine", engine},
                     {"cache", cache},
                     opt("batch", kNumber, r.batch, {.lo = 1, .hi = 4096}),
                     opt("clock", kRate, r.clock_hz)})) {
    return false;
  }
  r.is_ler = type == 0;
  if (p.s.has_router(r.name)) {
    return p.fail("duplicate router: " + r.name);
  }
  p.s.routers.push_back(std::move(r));
  return true;
}

bool parse_link(ScenarioParser& p) {
  LinkDecl l;
  if (!p.router(p.args[0], l.a) || !p.router(p.args[1], l.b) ||
      !p.value("bandwidth", p.args[2], kRate, kAny, l.bandwidth_bps) ||
      !p.value("delay", p.args[3], kTime, kAny, l.delay)) {
    return false;
  }
  p.s.links.push_back(std::move(l));
  return true;
}

/// `lsp` and `lsp-cspf`: a prefix, then nodes, flags and `bw=` in any
/// order.
bool parse_lsp(ScenarioParser& p) {
  LspDecl l;
  l.cspf = p.directive == "lsp-cspf";
  l.line = p.line;
  if (!p.prefix(p.args[0], l.fec)) {
    return false;
  }
  for (std::size_t i = 1; i < p.args.size(); ++i) {
    const std::string& t = p.args[i];
    if (t == "php" || t == "merge") {
      (t == "php" ? l.php : l.merge) = true;
    } else if (split_option(t)) {
      if (!p.option(t, {opt("bw", kRate, l.bw)})) {
        return false;
      }
    } else if (!p.router(t, l.path.emplace_back())) {
      return false;
    }
  }
  if (l.path.size() < 2) {
    return p.fail("lsp needs at least two nodes");
  }
  if (l.cspf && l.path.size() != 2) {
    return p.fail("lsp-cspf takes exactly ingress and egress");
  }
  p.s.lsps.push_back(std::move(l));
  return true;
}

bool parse_tunnel(ScenarioParser& p) {
  TunnelDecl t;
  t.name = p.args[0];
  t.line = p.line;
  for (std::size_t i = 1; i < p.args.size(); ++i) {
    if (!p.router(p.args[i], t.path.emplace_back())) {
      return false;
    }
  }
  p.s.tunnels.push_back(std::move(t));
  return true;
}

bool parse_lsp_via_tunnel(ScenarioParser& p) {
  LspViaTunnelDecl l;
  l.line = p.line;
  if (!p.prefix(p.args[0], l.fec)) {
    return false;
  }
  std::vector<std::string>* section = nullptr;  // pre or post nodes
  for (std::size_t i = 1; i < p.args.size(); ++i) {
    const std::string& t = p.args[i];
    if (t == "pre" || t == "post") {
      section = t == "pre" ? &l.pre : &l.post;
    } else if (t == "tunnel") {
      if (i + 1 >= p.args.size()) {
        return p.fail("tunnel section needs a name");
      }
      l.tunnel = p.args[++i];
      section = nullptr;
    } else if (split_option(t)) {
      if (!p.option(t, {opt("bw", kRate, l.bw)})) {
        return false;
      }
    } else if (section == nullptr) {
      return p.fail("unexpected token: " + t);
    } else if (!p.router(t, section->emplace_back())) {
      return false;
    }
  }
  if (l.pre.empty() || l.post.empty() || l.tunnel.empty()) {
    return p.fail("lsp-via-tunnel needs pre nodes, a tunnel and post nodes");
  }
  p.s.tunnel_lsps.push_back(std::move(l));
  return true;
}

bool parse_flow(ScenarioParser& p) {
  const auto& a = p.args;
  FlowDecl f;
  FlowSpec& spec = f.spec;
  std::size_t kind = 0;
  if (!p.pick(a[0], "flow kind", {"cbr", "poisson", "video", "onoff"},
              kind) ||
      !p.value("flow id", a[1], kNumber, kUserFlowId, spec.flow_id) ||
      !p.router(a[2], f.ingress) || !p.address(a[3], spec.dst) ||
      !p.options(4, {opt("cos", kNumber, spec.cos, kCos),
                     opt("size", kNumber, spec.payload_bytes, kNonNegative),
                     opt("start", kTime, spec.start),
                     opt("stop", kTime, spec.stop),
                     opt("interval", kTime, f.interval, kPositive),
                     opt("rate", kNumber, f.rate, kPositive),
                     opt("seed", kNumber, f.seed),
                     opt("fps", kNumber, f.fps, kPositive),
                     opt("ppf", kNumber, f.ppf, kAtLeastOne),
                     opt("on", kTime, f.mean_on, kPositive),
                     opt("off", kTime, f.mean_off, kPositive)})) {
    return false;
  }
  f.kind = static_cast<FlowDecl::Kind>(kind);  // names listed in enum order
  p.s.flows.push_back(std::move(f));
  return true;
}

/// `fail` and `restore`.
bool parse_link_event(ScenarioParser& p) {
  LinkEventDecl e;
  if (!p.value("time", p.args[0], kTime, kAny, e.at) ||
      !p.router(p.args[1], e.a) || !p.router(p.args[2], e.b)) {
    return false;
  }
  e.up = p.directive == "restore";
  p.s.link_events.push_back(std::move(e));
  return true;
}

bool parse_flap(ScenarioParser& p) {
  FlapDecl f;
  if (!p.value("time", p.args[0], kTime, kAny, f.at) ||
      !p.router(p.args[1], f.a) || !p.router(p.args[2], f.b) ||
      !p.value("flap duration", p.args[3], kTime, kPositive, f.down_for)) {
    return false;
  }
  p.s.flaps.push_back(std::move(f));
  return true;
}

bool parse_crash(ScenarioParser& p) {
  CrashDecl c;
  if (!p.value("time", p.args[0], kTime, kAny, c.at) ||
      !p.router(p.args[1], c.node) ||
      !p.options(2, {opt("for", kTime, c.duration, kPositive)})) {
    return false;
  }
  p.s.crashes.push_back(std::move(c));
  return true;
}

bool parse_corrupt(ScenarioParser& p) {
  CorruptDecl c;
  if (!p.value("time", p.args[0], kTime, kAny, c.at) ||
      !p.router(p.args[1], c.node) ||
      !p.options(2, {opt("salt", kNumber, c.salt, kNonNegative),
                     opt("resync", kTime, c.resync, kPositive)})) {
    return false;
  }
  p.s.corruptions.push_back(std::move(c));
  return true;
}

bool parse_police(ScenarioParser& p) {
  Scenario::PolicerDecl d;
  PolicerConfig& c = d.config;
  bool demote = false;
  if (!p.router(p.args[0], d.ingress) ||
      !p.value("flow id", p.args[1], kNumber, kNonNegative, d.flow_id) ||
      !p.value("rate", p.args[2], kRate, kAny, c.rate_bps) ||
      !p.options(3, {opt("burst", kNumber, c.burst_bytes, kPositive),
                     flag("demote", demote)})) {
    return false;
  }
  c.action = demote ? PolicerAction::kDemote : PolicerAction::kDrop;
  p.s.policers.push_back(std::move(d));
  return true;
}

bool parse_loadgen(ScenarioParser& p) {
  const auto& a = p.args;
  LoadGenDecl g;
  LoadGenConfig& c = g.config;
  std::size_t kind = 0;
  if (!p.pick(a[0], "loadgen arrivals", {"poisson", "mmpp"}, kind) ||
      !p.router(a[1], g.ingress) || !p.address(a[2], c.dst) ||
      !p.options(3, {opt("rate", kRate, c.rate_pps, kPositive),
                     opt("burst-rate", kRate, c.burst_rate_pps, kNonNegative),
                     opt("sojourn", kTime, c.mean_sojourn, kPositive),
                     opt("flows", kNumber, c.concurrent_flows,
                         {.lo = 1, .hi = 16e6}),
                     opt("alpha", kNumber, c.pareto_alpha, kPositive),
                     opt("minpkts", kNumber, c.pareto_min_packets,
                         kAtLeastOne),
                     opt("cos", kNumber, c.cos, kCos),
                     opt("size", kNumber, c.payload_bytes, kNonNegative),
                     opt("seed", kNumber, c.seed),
                     opt("start", kTime, c.start),
                     opt("stop", kTime, c.stop)})) {
    return false;
  }
  // Names listed in enum order.
  c.arrivals = static_cast<LoadGenConfig::Arrivals>(kind);
  p.s.loadgens.push_back(std::move(g));
  return true;
}

bool parse_attack(ScenarioParser& p) {
  const auto& a = p.args;
  AttackDecl d;
  AttackSpec& spec = d.spec;
  const auto dst = [&spec](ScenarioParser& p, const std::string& v) {
    return p.address(v, spec.dst);
  };
  std::size_t kind = 0;
  if (!p.pick(a[0], "attack kind",
              {"spoof", "ttl_flood", "reserved", "exhaust"}, kind) ||
      !p.value("time", a[1], kTime, kAny, spec.at) ||
      !p.router(a[2], d.ingress) ||
      !p.options(3, {opt("rate", kRate, spec.rate_pps, kPositive),
                     opt("for", kTime, spec.duration, kPositive),
                     opt("seed", kNumber, spec.seed),
                     {"dst", dst},
                     opt("cos", kNumber, spec.cos, kCos)})) {
    return false;
  }
  spec.kind = *attack_kind_from_string(a[0]);
  p.s.attacks.push_back(std::move(d));
  return true;
}

bool parse_guard(ScenarioParser& p) {
  GuardDecl g;
  GuardConfig& c = g.config;
  c.enabled = true;
  g.router = p.args[0];
  if ((g.router != "*" && !p.router(p.args[0], g.router)) ||
      !p.options(1, {opt("ttl", kRate, c.ttl_expiry_pps),
                     opt("reprogram", kRate, c.reprogram_per_s),
                     opt("demote", kNumber, c.demote_occupancy, kFraction),
                     opt("shed", kNumber, c.shed_occupancy, kFraction),
                     opt("maxcos", kNumber, c.demote_cos_max, kCos),
                     on_off("reserved", c.check_reserved),
                     on_off("spoof", c.check_spoof)})) {
    return false;
  }
  p.s.guards.push_back(std::move(g));
  return true;
}

/// `ping` and `traceroute`.
bool parse_oam(ScenarioParser& p) {
  OamDecl o;
  mpls::Ipv4Address dst;  // checked here; the report echoes the text
  if (!p.value("time", p.args[0], kTime, kAny, o.at) ||
      !p.router(p.args[1], o.ingress) || !p.address(p.args[2], dst)) {
    return false;
  }
  o.dst = p.args[2];
  o.traceroute = p.directive == "traceroute";
  p.s.oam_probes.push_back(std::move(o));
  return true;
}

bool parse_autorepair(ScenarioParser& p) {
  return p.value("hello interval", p.args[0], kTime, kPositive,
                 p.s.autorepair_hello) &&
         p.options(1, {opt("dead", kNumber, p.s.autorepair_dead, kAtLeastOne)});
}

bool parse_profile(ScenarioParser& p) {
  std::size_t k = 0;  // a bare `profile` means on
  if (!p.args.empty() && !p.pick(p.args[0], "profile mode", {"on", "off"}, k)) {
    return false;
  }
  p.s.profile = k == 0;
  return true;
}

bool parse_trace(ScenarioParser& p) { return p.path(p.s.trace_path); }

bool parse_metrics(ScenarioParser& p) { return p.path(p.s.metrics_path); }

bool parse_timeline(ScenarioParser& p) {
  p.timeline_line = p.line;
  return p.path(p.s.timeline_path);
}

bool parse_sample(ScenarioParser& p) {
  p.sample_line = p.line;
  return p.value("sample interval", p.args[0], kTime, kPositive,
                 p.s.sample_interval);
}

bool parse_protect(ScenarioParser& p) {
  p.s.protect = true;
  return p.options(0, {opt("bw", kRate, p.s.protect_bw)});
}

bool parse_run(ScenarioParser& p) {
  return p.value("duration", p.args[0], kTime, kAny, p.s.run_duration);
}

// The language's directives, one entry each; docs/SCENARIO.md has the
// grammar.  A new directive is an entry here, its phase in
// ScenarioRunner::run, and its grammar line in the docs.
constexpr ScenarioDirective kDirectives[] = {
    {.name = "qos", .max_args = kMany,
     .usage = "strict|fifo|wrr [capacity=64] [red]", .parse = parse_qos},
    {.name = "domains", .assign = true, .min_args = 1, .max_args = 1,
     .usage = "<N>|auto", .parse = parse_domains},
    {.name = "sync", .assign = true, .min_args = 1, .max_args = 1,
     .usage = "deterministic|free", .parse = parse_sync},
    {.name = "trace", .assign = true, .min_args = 1, .max_args = 1,
     .usage = "<path>|off", .parse = parse_trace},
    {.name = "metrics", .assign = true, .min_args = 1, .max_args = 1,
     .usage = "<path>|off", .parse = parse_metrics},
    {.name = "timeline", .assign = true, .min_args = 1, .max_args = 1,
     .usage = "<path>|off", .parse = parse_timeline},
    {.name = "sample", .assign = true, .min_args = 1, .max_args = 1,
     .usage = "<interval>", .parse = parse_sample},
    {.name = "profile", .max_args = 1, .usage = "[on|off]",
     .parse = parse_profile},
    {.name = "expect", .min_args = 3, .max_args = 5,
     .usage = "<metric> <op> <value> [during <t0>..<t1>]",
     .parse = parse_expect},
    {.name = "router", .min_args = 2, .max_args = kMany,
     .usage = "<name> ler|lsr [options]", .parse = parse_router},
    {.name = "link", .min_args = 4, .max_args = 4,
     .usage = "<a> <b> <bandwidth> <delay>", .parse = parse_link},
    {.name = "lsp", .min_args = 3, .max_args = kMany,
     .usage = "<prefix> <nodes...> [bw=] [php] [merge]", .parse = parse_lsp},
    {.name = "lsp-cspf", .min_args = 3, .max_args = kMany,
     .usage = "<prefix> <ingress> <egress> [bw=]", .parse = parse_lsp},
    {.name = "tunnel", .min_args = 4, .max_args = kMany,
     .usage = "<name> <n1> <n2> <n3> ...", .parse = parse_tunnel},
    {.name = "lsp-via-tunnel", .min_args = 7, .max_args = kMany,
     .usage = "<prefix> pre <n..> tunnel <name> post <n..> [bw=]",
     .parse = parse_lsp_via_tunnel},
    {.name = "flow", .min_args = 4, .max_args = kMany,
     .usage = "<kind> <id> <ingress> <dst> [opts]", .parse = parse_flow},
    {.name = "fail", .min_args = 3, .max_args = 3, .usage = "<time> <a> <b>",
     .control_plane = true, .parse = parse_link_event},
    {.name = "restore", .min_args = 3, .max_args = 3, .usage = "<time> <a> <b>",
     .control_plane = true, .parse = parse_link_event},
    {.name = "flap", .min_args = 4, .max_args = 4,
     .usage = "<time> <a> <b> <down-for>", .control_plane = true,
     .parse = parse_flap},
    {.name = "crash", .min_args = 2, .max_args = kMany,
     .usage = "<time> <node> [for=dur]", .control_plane = true,
     .parse = parse_crash},
    {.name = "corrupt", .min_args = 2, .max_args = kMany,
     .usage = "<time> <node> [salt=N] [resync=dur]", .control_plane = true,
     .parse = parse_corrupt},
    {.name = "protect", .max_args = kMany, .usage = "[bw=X]",
     .control_plane = true, .parse = parse_protect},
    {.name = "police", .min_args = 3, .max_args = kMany,
     .usage = "<ingress> <flow-id> <rate> [burst=N] [demote]",
     .parse = parse_police},
    {.name = "loadgen", .min_args = 3, .max_args = kMany,
     .usage = "poisson|mmpp <ingress> <dst> [opts]", .parse = parse_loadgen},
    {.name = "attack", .assign = true, .min_args = 3, .max_args = kMany,
     .usage = "<kind> <time> <ingress> [opts]", .control_plane = true,
     .parse = parse_attack},
    {.name = "guard", .min_args = 1, .max_args = kMany,
     .usage = "<router>|* [opts]", .parse = parse_guard},
    {.name = "ping", .min_args = 3, .max_args = 3,
     .usage = "<time> <ingress> <dst>", .control_plane = true,
     .parse = parse_oam},
    {.name = "traceroute", .min_args = 3, .max_args = 3,
     .usage = "<time> <ingress> <dst>", .control_plane = true,
     .parse = parse_oam},
    {.name = "autorepair", .min_args = 1, .max_args = kMany,
     .usage = "<hello> [dead=N]", .control_plane = true,
     .parse = parse_autorepair},
    {.name = "run", .min_args = 1, .max_args = 1, .usage = "<duration>",
     .parse = parse_run},
};

}  // namespace

std::span<const ScenarioDirective> scenario_directives() noexcept {
  return kDirectives;
}

std::variant<Scenario, ScenarioError> Scenario::parse(std::string_view text) {
  Scenario s;
  ScenarioParser p{.s = s};
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++p.line;
    p.args = tokenize(line);
    if (p.args.empty()) {
      continue;
    }
    // `name=value rest...` reads as `name value rest...`.
    const std::string word = p.args[0];
    const auto eq = word.find('=');
    const std::string name = word.substr(0, eq);
    const auto* d = std::find_if(std::begin(kDirectives), std::end(kDirectives),
                                 [&](const auto& e) { return e.name == name; });
    if (d == std::end(kDirectives) ||
        (eq != std::string::npos && !d->assign)) {
      return ScenarioError{p.line, "unknown directive: " + word};
    }
    if (eq == std::string::npos) {
      p.args.erase(p.args.begin());
    } else {
      p.args[0] = word.substr(eq + 1);
    }
    if (p.args.size() < d->min_args || p.args.size() > d->max_args) {
      return ScenarioError{p.line, std::string(d->name) + " needs: " +
                                       std::string(d->name) + " " +
                                       std::string(d->usage)};
    }
    p.directive = d->name;
    if (!d->parse(p)) {
      return ScenarioError{p.line, std::move(p.error)};
    }
    s.control_plane_ = s.control_plane_ || d->control_plane;
  }
  // Cross-directive validation: the runner pre-schedules timeline ticks
  // over the run window, so sampling needs a bounded run; windowed
  // assertions read the timeline, so they need sampling.
  if (s.sample_interval && !s.run_duration) {
    return ScenarioError{p.sample_line, "sample requires a run duration"};
  }
  for (const ExpectDecl& e : s.expects) {
    if (e.windowed && !s.sample_interval) {
      return ScenarioError{
          e.line, "expect ... during needs a sample interval (line " +
                      std::to_string(e.line) + ")"};
    }
  }
  if (!s.timeline_path.empty() && !s.sample_interval) {
    return ScenarioError{p.timeline_line,
                         "timeline output requires a sample interval"};
  }
  return s;
}

}  // namespace empls::net
