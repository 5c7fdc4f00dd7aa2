// Host-speed reference for bench_e2e.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over seconds to minutes: the guest keeps its vCPUs, but each
// cycle gets slower while neighbours load the host.  A wall-time rate
// then moves with the host as much as with the code.  So the benchmark
// interleaves short samples of a fixed piece of work of its own with
// every timed interval and reports its rates at the nominal speed of
// that work.
//
// The reference is owned by the benchmark and never changes with the
// simulator, so a change to the simulator moves only the simulator's
// side of the ratio.  Its mix follows what the workloads spend their
// time on: a binary heap of timed events with a counter table (the
// scheduler and the books) and linear key scans over a few thousand
// entries (the information-base search).  Its working set is about
// 600 KiB, allocated once per process.
#pragma once

#include <cstdint>
#include <memory>

namespace empls::bench::e2e {

class Reference {
 public:
  /// Nanoseconds one sample takes on the machine that defined the
  /// benchmark, at its usual speed.
  static constexpr double kNominalNs = 7e5;

  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Runs one sample on the calling thread and returns its time in
  /// nanoseconds.
  std::int64_t sample_ns();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Host speed over an interval: the samples' nominal time over the time
/// they took.  Above 1 the host ran faster than nominal, below 1 slower;
/// 1 when no sample was taken.
class HostSpeed {
 public:
  void add(std::int64_t sample_ns) {
    ns_ += static_cast<double>(sample_ns);
    ++samples_;
  }
  [[nodiscard]] double speed() const {
    return ns_ > 0 ? samples_ * Reference::kNominalNs / ns_ : 1.0;
  }

 private:
  double ns_ = 0;
  double samples_ = 0;
};

}  // namespace empls::bench::e2e
