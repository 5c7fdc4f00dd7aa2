// bench_e2e: the end-to-end benchmark every performance or simplicity
// change is judged by.  See README.md for the workloads, the metric
// table and how to read the per-layer ledger.
//
//   bench_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//                                   one run: rounds of one workload for
//                                   about S seconds; the last stdout line
//                                   is a JSON result
//   bench_e2e [--seed N] [--seconds S]
//                                   the full report: 5 interleaved runs of
//                                   every workload (each a child process
//                                   running the --workload command above),
//                                   a traced run each, the ledger, and
//                                   BENCH_e2e.json
//   bench_e2e --smoke               every workload at 1/100 scale with
//                                   every correctness gate
//   bench_e2e --compare A.json B.json
//                                   per (metric, workload) verdicts
//
// Exit status is non-zero when a correctness gate fails: a round that
// loses a packet without attributing it, fingerprints that differ
// between rounds, runs, or traced and untraced rounds, or (seed 1) a
// fingerprint that differs from the one committed in fingerprints.txt.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "workloads.hpp"

using namespace empls::bench;
using namespace empls::bench::e2e;

namespace {

struct Metric {
  const char* name;
  const char* unit;
  bool higher_is_better;
  double bound;  // share of the baseline median it may worsen by
  /// The run value that counts this metric's samples; null: the runs.
  const char* samples;
};

// The first kHostMetrics are host metrics (BENCHMARK.json's end_to_end
// list); the rest are sim-time results that a change to the simulator
// alone must leave exactly as they are.
constexpr Metric kEndToEnd[] = {
    {"sim_pkts_per_s", "1/s", true, 0.10, nullptr},
    {"setup_s", "s", false, 0.10, nullptr},
    {"peak_rss_mb", "MB", false, 0.05, nullptr},
    {"sim_latency_p50_us", "us", false, 0.0, "sim_latency_samples"},
    {"sim_latency_p99_us", "us", false, 0.0, "sim_latency_samples"},
    {"loss_ratio", "ratio", false, 0.0, "legit_offered"},
};
constexpr std::size_t kHostMetrics = 3;

// The per-layer metrics a --trace 1 run reports (BENCHMARK.json's
// per_layer list).  Sim-time and modelled entries stay in the printed
// ledger only: they are fixed by the fingerprint.
constexpr const char* kLayerMetrics[] = {
    "sw.update_ns_p50",
    "sw.update_ns_p99",
    "sw.share",
    "sw.updates_per_pkt",
    "sw.install_ns_p50",
    "core.receive_self_ns_p50",
    "core.receive_self_ns_p99",
    "core.share",
    "core.ingress.classify_ns_p50",
    "core.ingress.wire_check_ns_p50",
    "core.engine_queue_peak",
    "core.slow_path_installs",
    "net.sched.events_per_pkt",
    "net.loop_ns_per_event",
    "net.sched.heap_fallback_events",
    "net.sched.calendar_rebuilds",
    "net.sched.clamped",
    "net.pool.high_water",
    "net.pool.capacity",
    "net.pool.acquired_per_pkt",
    "net.link.queue_drops",
    "net.link.util_max",
    "net.drops.queue-full",
    "net.drops.engine-overrun",
    "net.drops.reprogram-rate-limited",
    "net.guard.admitted",
    "net.guard.reprogram_refusals",
    "net.loadgen.sent",
    "net.loadgen.flows_started",
    "net.ldp.establish_ns_p50",
    "net.domain.dispatch_share",
    "net.domain.search_share",
    "net.domain.handoff_share",
    "net.domain.barrier_share",
    "net.domain.handoffs_per_pkt",
    "net.domain.windows",
    "net.domain.idle_window_ratio",
    "net.domain.ring_overflows",
    "net.domain.event_imbalance",
    "obs.share",
    "obs.timeline_series",
    "trace.overhead",
};

constexpr unsigned kFullRuns = 5;
constexpr double kSmokeScale = 0.01;

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------
// Correctness gates.

std::optional<std::uint64_t> committed_fingerprint(std::string_view workload,
                                                   std::string_view scale) {
  std::ifstream in(EMPLS_E2E_DIR "/fingerprints.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string w;
    std::string s;
    std::string h;
    if (line.empty() || line[0] == '#' || !(fields >> w >> s >> h)) {
      continue;
    }
    if (w == workload && s == scale) {
      return std::strtoull(h.c_str(), nullptr, 16);
    }
  }
  return std::nullopt;
}

class Gates {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what.c_str());
      ok_ = false;
    }
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Conservation in every round, one fingerprint across all of them,
  /// and (seed 1) the committed fingerprint.
  void rounds(const Workload& w, std::uint64_t seed, double scale,
              const std::vector<const RoundResult*>& rs) {
    const std::string tag = std::string(" [") + w.name + "]";
    for (const RoundResult* r : rs) {
      check(r->unaccounted == 0,
            "offered = delivered + attributed drops" + tag);
      check(r->fingerprint == rs.front()->fingerprint,
            "fingerprint identical across rounds and traced/untraced runs " +
                hex(r->fingerprint) + " vs " + hex(rs.front()->fingerprint) +
                tag);
    }
    if (seed == 1 && !rs.empty()) {
      const char* which = scale == 1.0 ? "full" : "smoke";
      const auto expected = committed_fingerprint(w.name, which);
      check(expected.has_value(),
            std::string("committed ") + which + " fingerprint present" + tag);
      if (expected) {
        check(*expected == rs.front()->fingerprint,
              "fingerprint matches committed " + hex(*expected) + tag);
      }
    }
  }

 private:
  bool ok_ = true;
};

// ---------------------------------------------------------------------
// One run of one workload: the only measuring path.  The
// --workload mode prints it; the full report collects it from children.

const NamedValue& find_value(const std::vector<NamedValue>& values,
                             std::string_view name) {
  for (const NamedValue& v : values) {
    if (v.name == name) {
      return v;
    }
  }
  throw std::logic_error("run has no " + std::string(name));
}

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  // packets injected over all rounds
  std::uint64_t failed = 0;     // packets the books cannot account for
  std::uint64_t fingerprint = 0;
  std::string books;
  /// The end-to-end metrics and the sample counts behind them.
  std::vector<NamedValue> metrics;
  /// Traced runs only: the per-layer ledger, medians over traced rounds.
  std::vector<NamedValue> layers;

  /// The record a run prints before its JSON line, one value a line;
  /// the full report parses it back from each child.
  [[nodiscard]] std::string serialize() const {
    std::ostringstream out;
    out << "correct " << correct << '\n'
        << "attempted " << attempted << '\n'
        << "failed " << failed << '\n'
        << "fingerprint " << hex(fingerprint) << '\n';
    for (const NamedValue& v : metrics) {
      out << "metric " << v.name << ' ' << v.unit << ' ' << fmt(v.value)
          << '\n';
    }
    for (const NamedValue& v : layers) {
      out << "layer " << v.name << ' ' << v.unit << ' ' << fmt(v.value)
          << '\n';
    }
    out << "books " << books << '\n';
    return out.str();
  }

  /// A line serialize() writes.
  [[nodiscard]] static bool is_record(std::string_view line) {
    const std::string_view key = line.substr(0, line.find(' '));
    for (const char* k : {"correct", "attempted", "failed", "fingerprint",
                          "metric", "layer", "books"}) {
      if (key == k) {
        return true;
      }
    }
    return false;
  }

  /// The record in `text`; other lines are skipped.
  [[nodiscard]] static RunResult parse(std::string_view text) {
    RunResult r;
    std::istringstream lines{std::string(text)};
    std::string line;
    while (std::getline(lines, line)) {
      if (!is_record(line)) {
        continue;
      }
      std::istringstream in(line);
      std::string key;
      in >> key;
      if (key == "metric" || key == "layer") {
        NamedValue v;
        in >> v.name >> v.unit >> v.value;
        (key == "metric" ? r.metrics : r.layers).push_back(std::move(v));
      } else if (key == "books") {
        in >> std::ws;
        std::getline(in, r.books);
      } else if (key == "correct") {
        in >> r.correct;
      } else if (key == "attempted") {
        in >> r.attempted;
      } else if (key == "failed") {
        in >> r.failed;
      } else {
        in >> std::hex >> r.fingerprint;
      }
    }
    return r;
  }
};

std::string trace_path(const Workload& w) {
  return std::string("bench_e2e_trace_") + w.name + ".json";
}

void print_round(const Workload& w, const char* kind, std::size_t k,
                 const RoundResult& r) {
  std::printf("%-8s round %zu %-8s pkts/s=%.0f setup_ms=%.4f speed=%.3f "
              "wall_s=%.3f fp=%s %s\n",
              w.name, k, kind, r.pkts_per_s, r.setup_s * 1e3, r.host_speed,
              r.timed_wall_s, hex(r.fingerprint).c_str(), r.books.c_str());
  std::fflush(stdout);
}

/// Rounds of `w` until about `seconds` have passed, at least one of each
/// kind.  A traced run alternates untraced and traced rounds, so the
/// tracing overhead is measured inside one process.  End-to-end metrics
/// always come from the untraced rounds.
RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       bool tracing) {
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  Reference reference;
  const std::int64_t start = now_ns();
  double last_round_s = 0;
  for (std::size_t k = 0;; ++k) {
    const bool have = !plain.empty() && (!tracing || !traced.empty());
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (have && elapsed + last_round_s / 2 >= seconds) {
      break;
    }
    const bool traced_round = tracing && k % 2 == 1;
    RoundConfig cfg;
    cfg.workload = &w;
    cfg.seed = seed;
    cfg.traced = traced_round;
    cfg.setups = w.setups;
    cfg.trace_path = traced_round ? trace_path(w) : "";
    cfg.reference = &reference;
    const std::int64_t t0 = now_ns();
    RoundResult r = run_round(cfg);
    last_round_s = static_cast<double>(now_ns() - t0) * 1e-9;
    print_round(w, traced_round ? "traced" : "untraced", k, r);
    (traced_round ? traced : plain).push_back(std::move(r));
  }

  Gates gates;
  std::vector<const RoundResult*> all;
  RunResult out;
  std::vector<double> pkts;
  std::vector<double> setups;
  std::vector<double> speeds;
  for (const auto* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      all.push_back(&r);
      out.attempted += r.offered;
      out.failed += r.unaccounted;
    }
  }
  for (const RoundResult& r : plain) {
    pkts.push_back(r.pkts_per_s);
    setups.push_back(r.setup_s);
    speeds.push_back(r.host_speed);
  }
  gates.rounds(w, seed, 1.0, all);
  out.correct = gates.ok();

  const RoundResult& first = plain.front();
  out.fingerprint = first.fingerprint;
  out.books = first.books;
  const double rate = summarize(pkts).median;
  auto put = [&out](const char* name, double value, const char* unit) {
    out.metrics.push_back(NamedValue{name, unit, value});
  };
  put("sim_pkts_per_s", rate, "1/s");
  put("setup_s", summarize(setups).median, "s");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  put("sim_latency_p50_us", first.latency_p50_us, "us");
  put("sim_latency_p99_us", first.latency_p99_us, "us");
  put("loss_ratio", first.loss_ratio, "ratio");
  put("sim_latency_samples", static_cast<double>(first.latency_samples),
      "count");
  put("legit_offered", static_cast<double>(first.offered_legit), "count");
  put("host_speed", summarize(speeds).median, "ratio");

  if (tracing) {
    // Every traced round lists the same ledger entries in the same order.
    for (std::size_t i = 0; i < traced.front().layers.size(); ++i) {
      std::vector<double> v;
      for (const RoundResult& r : traced) {
        v.push_back(r.layers[i].value);
      }
      const NamedValue& l = traced.front().layers[i];
      out.layers.push_back(NamedValue{l.name, l.unit, summarize(v).median});
    }
    std::vector<double> tp;
    for (const RoundResult& r : traced) {
      tp.push_back(r.pkts_per_s);
    }
    out.layers.push_back(
        NamedValue{"trace.overhead", "ratio", summarize(tp).median / rate});
  }
  return out;
}

// ---------------------------------------------------------------------
// --workload mode: one run, then the JSON result line.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  int trace = 0;
  bool smoke = false;
  std::vector<std::string> compare;
};

int run_one(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const bool tracing = args.trace != 0;
  const RunResult run = run_workload(*w, args.seed, args.seconds, tracing);

  std::fputs(run.serialize().c_str(), stdout);
  std::string metrics;
  auto put = [&metrics](const NamedValue& v) {
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + v.name + "\": {") +
               "\"value\": " + fmt(v.value) + ", \"unit\": \"" + v.unit +
               "\"}";
  };
  if (tracing) {
    for (const char* name : kLayerMetrics) {
      put(find_value(run.layers, name));
    }
  } else {
    for (std::size_t m = 0; m < kHostMetrics; ++m) {
      put(find_value(run.metrics, kEndToEnd[m].name));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  return run.correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Full report: interleaved runs, each a child process running the
// --workload command, so its numbers (peak RSS included: the child's
// address space is fresh after exec) are exactly what that command
// reports.

RunResult child_run(const Workload& w, std::uint64_t seed, double seconds,
                    bool tracing) {
  const std::string seed_text = std::to_string(seed);
  const std::string seconds_text = fmt(seconds);
  const char* argv[] = {"bench_e2e",          "--workload",
                        w.name,               "--seed",
                        seed_text.c_str(),    "--seconds",
                        seconds_text.c_str(), "--trace",
                        tracing ? "1" : "0",  nullptr};
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    execv("/proc/self/exe", const_cast<char* const*>(argv));
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  // Progress and gate lines pass through; the record is parsed, and the
  // JSON line repeats it.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!RunResult::is_record(line) && line.rfind('{', 0) != 0) {
      std::printf("%s\n", line.c_str());
    }
  }
  RunResult r = RunResult::parse(text);
  // Exit 1 with a record is a failed gate, reported through `correct`.
  if (!WIFEXITED(status) || WEXITSTATUS(status) > 1 || r.metrics.empty()) {
    throw std::runtime_error(std::string("run failed: ") + w.name);
  }
  return r;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run_full(const Args& args) {
  const auto ws = workloads();
  const std::size_t n = ws.size();
  std::vector<std::vector<RunResult>> runs(n);
  std::vector<RunResult> traced(n);
  for (unsigned r = 0; r < kFullRuns; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t w = (i + r) % n;  // rotate the order every time
      runs[w].push_back(child_run(ws[w], args.seed, args.seconds, false));
    }
  }
  for (std::size_t w = 0; w < n; ++w) {
    traced[w] = child_run(ws[w], args.seed, args.seconds, true);
  }

  Gates gates;
  BenchJson json("e2e");
  json.set("build.nproc", std::max(1u, std::thread::hardware_concurrency()));
  json.set("build.cpu", cpu_model());
  json.set("build.compiler", compiler());
  json.set("run.seed", args.seed);
  json.set("run.runs", kFullRuns);
  json.set("run.seconds", args.seconds);
  std::printf("\n%-9s %-19s %14s %14s %14s %9s  %s\n", "workload", "metric",
              "median", "q1", "q3", "n", "unit");
  for (std::size_t w = 0; w < n; ++w) {
    const std::string name = ws[w].name;
    const RunResult& first = runs[w].front();
    std::vector<const RunResult*> all;
    for (const RunResult& r : runs[w]) {
      all.push_back(&r);
    }
    all.push_back(&traced[w]);
    for (const RunResult* r : all) {
      gates.check(r->correct, "every gate passed in the run [" + name + "]");
      gates.check(r->fingerprint == first.fingerprint,
                  "fingerprint identical across runs " + hex(r->fingerprint) +
                      " vs " + hex(first.fingerprint) + " [" + name + "]");
    }
    for (const Metric& metric : kEndToEnd) {
      std::vector<double> values;
      for (const RunResult& r : runs[w]) {
        values.push_back(find_value(r.metrics, metric.name).value);
      }
      Summary s = summarize(values);
      if (metric.samples != nullptr) {
        s.n = static_cast<std::uint64_t>(
            find_value(first.metrics, metric.samples).value);
      }
      std::printf("%-9s %-19s %14.6g %14.6g %14.6g %9llu  %s\n",
                  name.c_str(), metric.name, s.median, s.q1, s.q3,
                  static_cast<unsigned long long>(s.n), metric.unit);
      const std::string key = name + "." + metric.name + ".";
      json.set(key + "median", s.median);
      json.set(key + "q1", s.q1);
      json.set(key + "q3", s.q3);
      json.set(key + "n", s.n);
      json.set(key + "unit", std::string(metric.unit));
      json.set(key + "better",
               std::string(metric.higher_is_better ? "higher" : "lower"));
      json.set(key + "bound", metric.bound);
    }
    json.set(name + ".fingerprint", hex(first.fingerprint));
    json.set(name + ".books", first.books);
    // BenchJson needs keys that share a prefix to be consecutive.
    auto layers = traced[w].layers;
    std::sort(layers.begin(), layers.end(),
              [](const NamedValue& a, const NamedValue& b) {
                return a.name < b.name;
              });
    for (const NamedValue& l : layers) {
      json.set(name + ".layers." + l.name, l.value);
    }
  }

  std::printf("\nper-layer ledger (traced runs; *_n are sample counts)\n");
  std::printf("%-34s", "layer metric");
  for (std::size_t w = 0; w < n; ++w) {
    std::printf(" %13s", ws[w].name);
  }
  std::printf("  unit\n");
  const auto& names = traced.front().layers;
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%-34s", names[i].name.c_str());
    for (std::size_t w = 0; w < n; ++w) {
      std::printf(" %13.6g", traced[w].layers[i].value);
    }
    std::printf("  %s\n", names[i].unit.c_str());
  }
  std::printf("\n");

  const bool wrote = json.write();
  gates.check(wrote, "BENCH_e2e.json written");
  return gates.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Smoke: every workload at 1/100 scale, every gate, no timing claims.

int run_smoke(const Args& args) {
  Gates gates;
  for (const Workload& w : workloads()) {
    RoundConfig cfg;
    cfg.workload = &w;
    cfg.seed = args.seed;
    cfg.scale = kSmokeScale;
    const RoundResult a = run_round(cfg);
    const RoundResult b = run_round(cfg);
    cfg.traced = true;
    const RoundResult t = run_round(cfg);
    gates.rounds(w, args.seed, kSmokeScale, {&a, &b, &t});
    gates.check(!t.layers.empty() && t.timed_pkts > 0,
                std::string("traced round reports its ledger [") + w.name +
                    "]");
    if (std::string_view(w.name) == "ring16") {
      // Timed rounds merge the domains on one thread; free-running
      // domain threads, traced and untraced, run here, which is where
      // the thread sanitizer job sees them.
      cfg.free_running = true;
      const RoundResult free_traced = run_round(cfg);
      cfg.traced = false;
      const RoundResult free_plain = run_round(cfg);
      gates.check(free_traced.fingerprint == a.fingerprint &&
                      free_plain.fingerprint == a.fingerprint,
                  "ring16 free-running books equal the deterministic merge");
      cfg.free_running = false;
      cfg.domains = 1;
      const RoundResult single = run_round(cfg);
      gates.check(single.fingerprint == a.fingerprint,
                  "ring16 partitioned books equal the unpartitioned run");
    }
    std::printf("%-9s fp=%s %s\n", w.name, hex(a.fingerprint).c_str(),
                a.books.c_str());
  }
  std::printf("smoke: %s\n", gates.ok() ? "all gates passed" : "FAILED");
  return gates.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------
// --compare: a minimal JSON reader flattening BENCH_e2e.json into dotted
// keys, then one verdict per (metric, workload).

class FlatJson {
 public:
  explicit FlatJson(std::string text) : s_(std::move(text)) {
    value("");
    skip();
    if (i_ != s_.size()) {
      throw std::runtime_error("trailing JSON text");
    }
  }

  [[nodiscard]] std::optional<double> number(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return std::nullopt;
    }
    return std::strtod(it->second.c_str(), nullptr);
  }

 private:
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  char peek() {
    skip();
    if (i_ >= s_.size()) {
      throw std::runtime_error("truncated JSON");
    }
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("JSON: expected ") + c);
    }
    ++i_;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) {
        ++i_;
      }
      out += s_[i_++];
    }
    expect('"');
    return out;
  }
  void value(const std::string& key) {
    const char c = peek();
    if (c == '{') {
      ++i_;
      if (peek() == '}') {
        ++i_;
        return;
      }
      for (;;) {
        const std::string k = string();
        expect(':');
        value(key.empty() ? k : key + "." + k);
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect('}');
        return;
      }
    }
    if (c == '"') {
      values_[key] = string();
      return;
    }
    const std::size_t start = i_;
    while (i_ < s_.size() && std::strchr(",}] \n\r\t", s_[i_]) == nullptr) {
      ++i_;
    }
    values_[key] = s_.substr(start, i_ - start);
  }

  std::string s_;
  std::size_t i_ = 0;
  std::map<std::string, std::string> values_;
};

FlatJson load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return FlatJson(text.str());
}

/// improved / unchanged / worse by the metric's bound; unresolved when
/// either side's quartile spread exceeds the bound and the quartile
/// ranges overlap.
const char* verdict(const Metric& m, const Summary& a, const Summary& b) {
  const double scale = std::abs(a.median) > 0 ? std::abs(a.median) : 1.0;
  const double gain =
      (m.higher_is_better ? b.median - a.median : a.median - b.median) / scale;
  const double spread = std::max(a.q3 - a.q1, b.q3 - b.q1) / scale;
  if (spread > m.bound) {
    const bool better =
        m.higher_is_better ? b.q1 > a.q3 : b.q3 < a.q1;
    const bool worse = m.higher_is_better ? b.q3 < a.q1 : b.q1 > a.q3;
    return better ? "improved" : worse ? "worse" : "unresolved";
  }
  if (gain < -m.bound) {
    return "worse";
  }
  return gain > m.bound ? "improved" : "unchanged";
}

int run_compare(const Args& args) {
  const FlatJson a = load_json(args.compare[0]);
  const FlatJson b = load_json(args.compare[1]);
  std::printf("%-9s %-19s %14s %14s %8s  %s\n", "workload", "metric", "A",
              "B", "change", "verdict");
  bool any_worse = false;
  for (const Workload& w : workloads()) {
    for (const Metric& m : kEndToEnd) {
      const std::string key = std::string(w.name) + "." + m.name + ".";
      auto load = [&key](const FlatJson& j) -> std::optional<Summary> {
        const auto med = j.number(key + "median");
        const auto q1 = j.number(key + "q1");
        const auto q3 = j.number(key + "q3");
        if (!med || !q1 || !q3) {
          return std::nullopt;
        }
        return Summary{*med, *q1, *q3, 0};
      };
      const auto sa = load(a);
      const auto sb = load(b);
      if (!sa || !sb) {
        std::printf("%-9s %-19s %14s %14s %8s  %s\n", w.name, m.name, "-",
                    "-", "-", "missing");
        continue;
      }
      const char* v = verdict(m, *sa, *sb);
      any_worse = any_worse || std::strcmp(v, "worse") == 0;
      const double change =
          sa->median != 0 ? (sb->median - sa->median) / sa->median * 100 : 0;
      std::printf("%-9s %-19s %14.6g %14.6g %+7.2f%%  %s\n", w.name, m.name,
                  sa->median, sb->median, change, v);
    }
  }
  return any_worse ? 1 : 0;
}

// ---------------------------------------------------------------------

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--seed N] [--seconds S]\n"
               "       bench_e2e --workload W [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "       bench_e2e --smoke [--seed N]\n"
               "       bench_e2e --compare A.json B.json\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    auto number = [&](double lo, double hi) {
      const std::string text = next();
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(v >= lo && v <= hi)) {
        usage();
      }
      return v;
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(number(0, 1e15));
    } else if (arg == "--seconds") {
      a.seconds = number(0, 3600);
    } else if (arg == "--trace") {
      a.trace = static_cast<int>(number(0, 1));
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--compare") {
      a.compare.push_back(next());
      a.compare.push_back(next());
    } else {
      usage();
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (!args.compare.empty()) {
      return run_compare(args);
    }
    if (args.smoke) {
      return run_smoke(args);
    }
    if (!args.workload.empty()) {
      return run_one(args);
    }
    return run_full(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
