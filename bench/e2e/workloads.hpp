// bench_e2e workloads and the measured round that runs one of them.
//
// A round has three phases: set-up (build, register and signal LSPs —
// repeated `setups` times, each build timed and torn down untimed, with
// only the last one kept), a 0.5 s sim-time warm-up (pools, calendar
// buckets and slow-path installs fill), and a timed phase over a fixed
// sim-time horizon split into 20 equal slices.  Samples of the host-speed
// reference (reference.hpp) run through the set-up and every slice, and
// the round's host times are given at its nominal speed.  The round then
// drains to quiescence and closes the books: conservation, the
// simulated-stats fingerprint, and sim-time latency from the benchmark's
// own 0.1 us-bin histogram.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace empls::bench::e2e {

class Reference;

struct Workload {
  const char* name;
  /// Timed sim-time horizon at full scale.
  double horizon_s;
  /// Builds timed per measured round; their mean is the round's set-up
  /// time.  Sized so one round's set-ups take tens of milliseconds.
  unsigned setups;
};

[[nodiscard]] std::span<const Workload> workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

struct RoundConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  /// Sim-time scale: 1 for measurement, 0.01 for the smoke test.
  double scale = 1.0;
  /// Build with the timing decorators and collect the per-layer ledger.
  bool traced = false;
  /// Builds timed this round; only the last one is run.  A traced round
  /// pools install and LSP-signalling timings over all of them.
  unsigned setups = 1;
  /// ring16's event domains; 1 runs it unpartitioned.
  unsigned domains = 4;
  /// ring16's domains run as free-running threads (clamped to the
  /// hardware threads) instead of the deterministic merge on one thread.
  /// The smoke test only: on a shared machine their speed follows the
  /// host's scheduler more than the code.
  bool free_running = false;
  /// Chrome trace written by a traced round; empty = none.
  std::string trace_path;
  /// Host-speed reference sampled through the set-up batch and every
  /// slice; the round's host times are then given at its nominal speed.
  /// Null (the smoke test, which makes no timing claims): raw host times.
  Reference* reference = nullptr;
};

/// One named reading: a per-layer ledger entry or an end-to-end metric.
struct NamedValue {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RoundResult {
  // Host time, at the reference's nominal speed.
  double pkts_per_s = 0;  // median over the timed slices
  double setup_s = 0;     // mean over the round's builds
  double host_speed = 1;  // median reference speed over the slices
  double timed_wall_s = 0;  // as measured

  // Simulated books (identical for every round of a workload and seed).
  std::uint64_t timed_pkts = 0;   // injected during the timed phase
  std::uint64_t offered = 0;      // injected over the whole round
  std::uint64_t offered_legit = 0;
  std::uint64_t delivered_legit = 0;
  std::uint64_t unaccounted = 0;  // |offered - delivered - drops|
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  std::uint64_t latency_samples = 0;
  double loss_ratio = 0;
  std::uint64_t fingerprint = 0;
  std::string books;  // the fingerprint's inputs, human-readable

  /// Traced rounds only.
  std::vector<NamedValue> layers;
};

/// Build, warm up, time and drain one round.  Throws std::runtime_error
/// when the workload cannot be built (an LSP refused, a partition
/// refused).
[[nodiscard]] RoundResult run_round(const RoundConfig& config);

/// Peak resident set of the calling process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Shortest decimal text that reads back as exactly `v`.
[[nodiscard]] std::string fmt(double v);

/// Median and quartiles as Python's statistics.quantiles(values, n=4)
/// computes them (exclusive method), and the sample count.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::uint64_t n = 0;
};

[[nodiscard]] Summary summarize(std::vector<double> values);

}  // namespace empls::bench::e2e
