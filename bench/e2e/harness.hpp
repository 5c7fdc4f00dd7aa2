// Outside-in tracing harness for bench_e2e.
//
// Every per-layer number the benchmark reports is measured from the
// benchmark's own code, around calls into each layer's public functions;
// nothing under src/ is instrumented for it.  Two decorators carry the
// measurements:
//
//   * TimedEngine wraps any sw::LabelEngine and times every call into it
//     (updates, batches, and the information-base write path);
//   * TimedRouter is a core::EmbeddedRouter whose receive() override
//     times the router's own work, minus the engine time nested inside
//     it, and on 1 receive in 64 times side calls to the public
//     IngressProcessor statics.
//
// Both write into one NodeTrace per router.  A router only ever runs on
// the thread executing its event domain, and domains hand over only
// across barriers or joins, so a NodeTrace needs no locking even under
// free-running partitioned execution.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/embedded_router.hpp"
#include "core/ingress.hpp"
#include "sw/engine.hpp"

namespace empls::bench::e2e {

/// Host nanoseconds since the first call in this process.
inline std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// Log-linear histogram of nanosecond durations: exact below 128 ns,
/// then 64 sub-buckets per power of two (under 1.6% bucket width).
/// Quantiles interpolate inside the bucket, so they read as measured
/// values rather than as bucket edges.
class NsHist {
 public:
  NsHist() : bins_(kBins, 0) {}

  void record(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
    ++bins_[index(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const NsHist& other) {
    for (std::size_t i = 0; i < kBins; ++i) {
      bins_[i] += other.bins_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  void clear() {
    bins_.assign(kBins, 0);
    count_ = 0;
    sum_ = 0;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }

  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBins; ++i) {
      if (bins_[i] == 0) {
        continue;
      }
      const auto c = static_cast<double>(bins_[i]);
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      cum += c;
    }
    return static_cast<double>(lower(kBins - 1));
  }

 private:
  static constexpr std::size_t kSub = 64;
  static constexpr std::size_t kBins = 2 * kSub + 57 * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) {
      return static_cast<std::size_t>(v);
    }
    const auto shift = static_cast<unsigned>(std::bit_width(v)) - 7;
    return 2 * kSub + (shift - 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < 2 * kSub) {
      return i;
    }
    const std::size_t shift = (i - 2 * kSub) / kSub + 1;
    return static_cast<std::uint64_t>((i - 2 * kSub) % kSub + kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < 2 * kSub ? 1 : std::uint64_t{1} << ((i - 2 * kSub) / kSub + 1);
  }

  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// One timed call: name, host start/end, and the span that caused it
/// (0 = a root span).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Bounded flight-recorder ring of spans: the newest `capacity` spans
/// survive, older ones are overwritten.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity = 4096) : ring_(capacity) {}

  void push(const Span& s) {
    ring_[total_ % ring_.size()] = s;
    ++total_;
  }

  template <typename F>
  void for_each(F&& f) const {
    const std::size_t n = total_ < ring_.size() ? total_ : ring_.size();
    for (std::size_t i = total_ - n; i < total_; ++i) {
      f(ring_[i % ring_.size()]);
    }
  }

 private:
  std::vector<Span> ring_;
  std::uint64_t total_ = 0;
};

/// Per-router (or per-lane) accumulators.  reset_run() at the start of
/// the timed phase clears everything except `install`, which keeps the
/// information-base writes made during set-up.
struct NodeTrace {
  NodeTrace(std::string name, std::uint32_t lane)
      : name(std::move(name)), lane(lane) {}

  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(lane) + 1) << 40 | ++seq;
  }

  void reset_run() {
    update.clear();
    receive_self.clear();
    classify.clear();
    wire_check.clear();
    engine_ns = 0;
    receive_self_ns = 0;
  }

  std::string name;
  std::uint32_t lane;
  std::uint64_t seq = 0;
  std::uint64_t open_span = 0;  // enclosing receive() span, 0 = none
  SpanRing spans;

  NsHist update;        // update() / update_batch() calls
  NsHist install;       // information-base writes
  NsHist receive_self;  // receive() minus nested engine time
  NsHist classify;      // sampled IngressProcessor::classify
  NsHist wire_check;    // sampled IngressProcessor::wire_round_trip_ok
  std::uint64_t engine_ns = 0;        // every engine call, this phase
  std::uint64_t receive_self_ns = 0;  // receive() self time, this phase
  std::uint64_t side_sink = 0;        // keeps the side calls observable
};

/// RAII span: times the enclosing scope into `hist`, adds it to `total`,
/// and records it in the lane's ring under the lane's open span.
class ScopedSpan {
 public:
  ScopedSpan(NodeTrace& trace, const char* name, NsHist& hist,
             std::uint64_t& total)
      : trace_(trace),
        hist_(hist),
        total_(total),
        name_(name),
        start_(now_ns()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    const std::int64_t end = now_ns();
    hist_.record(end - start_);
    total_ += static_cast<std::uint64_t>(end - start_);
    trace_.spans.push(
        Span{name_, start_, end, trace_.next_id(), trace_.open_span});
  }

 private:
  NodeTrace& trace_;
  NsHist& hist_;
  std::uint64_t& total_;
  const char* name_;
  std::int64_t start_;
};

/// Timing decorator over any LabelEngine.  Every virtual forwards to the
/// inner engine's public entry points, so the inner engine keeps its own
/// epoch and batch makespan exactly as it would undecorated.
class TimedEngine final : public sw::LabelEngine {
 public:
  TimedEngine(std::unique_ptr<sw::LabelEngine> inner, NodeTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override {
    return inner_->lookup(level, key);
  }
  [[nodiscard]] rtl::u64 last_lookup_cost_cycles() const noexcept override {
    return inner_->last_lookup_cost_cycles();
  }
  [[nodiscard]] bool cacheable() const noexcept override {
    return inner_->cacheable();
  }
  [[nodiscard]] unsigned parallelism() const noexcept override {
    return inner_->parallelism();
  }
  [[nodiscard]] std::size_t level_size(unsigned level) const override {
    return inner_->level_size(level);
  }

  sw::UpdateOutcome update(mpls::Packet& packet, unsigned level,
                           hw::RouterType router_type) override {
    const ScopedSpan span(trace_, "sw.update", trace_.update,
                          trace_.engine_ns);
    return inner_->update(packet, level, router_type);
  }

  std::vector<sw::UpdateOutcome> update_batch(
      std::span<mpls::Packet* const> packets,
      hw::RouterType router_type) override {
    std::vector<sw::UpdateOutcome> out;
    {
      const ScopedSpan span(trace_, "sw.update_batch", trace_.update,
                          trace_.engine_ns);
      out = inner_->update_batch(packets, router_type);
    }
    last_batch_makespan_ = inner_->last_batch_makespan_cycles();
    return out;
  }

 protected:
  void do_clear() override {
    const ScopedSpan span(trace_, "sw.clear", trace_.install,
                          trace_.engine_ns);
    inner_->clear();
  }
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override {
    const ScopedSpan span(trace_, "sw.install", trace_.install,
                          trace_.engine_ns);
    return inner_->write_pair(level, pair);
  }
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override {
    const ScopedSpan span(trace_, "sw.corrupt", trace_.install,
                          trace_.engine_ns);
    return inner_->corrupt_entry(level, key, new_label);
  }

 private:
  std::unique_ptr<sw::LabelEngine> inner_;
  NodeTrace& trace_;
};

/// EmbeddedRouter with a timed receive().  Self time subtracts only the
/// engine time nested inside receive(); engine calls made from launch
/// events (the router's engine-idle path) count toward the engine alone.
class TimedRouter final : public core::EmbeddedRouter {
 public:
  TimedRouter(std::string name, std::unique_ptr<TimedEngine> engine,
              core::RouterConfig config, NodeTrace& trace)
      : core::EmbeddedRouter(std::move(name), std::move(engine), config),
        trace_(trace) {}

  void receive(net::PacketHandle packet, mpls::InterfaceId in_if) override {
    if ((receives_++ & 63) == 0 && packet) {
      side_calls(*packet);
    }
    const std::uint64_t id = trace_.next_id();
    const std::uint64_t outer = std::exchange(trace_.open_span, id);
    const std::uint64_t engine0 = trace_.engine_ns;
    const std::int64_t start = now_ns();
    core::EmbeddedRouter::receive(std::move(packet), in_if);
    const std::int64_t end = now_ns();
    const std::uint64_t nested = trace_.engine_ns - engine0;
    const auto raw = static_cast<std::uint64_t>(end - start);
    const std::uint64_t self = raw > nested ? raw - nested : 0;
    trace_.receive_self.record(static_cast<std::int64_t>(self));
    trace_.receive_self_ns += self;
    trace_.open_span = outer;
    trace_.spans.push(Span{"core.receive", start, end, id, outer});
  }

 private:
  void side_calls(const mpls::Packet& packet) {
    const std::int64_t t0 = now_ns();
    const auto cls = core::IngressProcessor::classify(packet);
    const std::int64_t t1 = now_ns();
    const bool ok = core::IngressProcessor::wire_round_trip_ok(packet);
    const std::int64_t t2 = now_ns();
    trace_.classify.record(t1 - t0);
    trace_.wire_check.record(t2 - t1);
    trace_.side_sink += cls.key + (ok ? 1u : 0u);
  }

  NodeTrace& trace_;
  std::uint64_t receives_ = 0;
};

/// Chrome trace-event JSON ("X" complete events, microseconds) of every
/// span still held by the given rings; one tid per lane, with the lane's
/// name as thread metadata, and the span/parent ids in args.
inline void write_chrome_trace(std::ostream& out,
                               const std::vector<const NodeTrace*>& lanes) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };
  for (const NodeTrace* lane : lanes) {
    sep();
    out << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << lane->lane
        << R"(,"args":{"name":")" << lane->name << "\"}}";
  }
  for (const NodeTrace* lane : lanes) {
    lane->spans.for_each([&](const Span& s) {
      sep();
      out << R"({"ph":"X","name":")" << s.name
          << R"(","pid":1,"tid":)" << lane->lane
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << R"(,"args":{"id":)" << s.id << ",\"parent\":" << s.parent
          << "}}";
    });
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace empls::bench::e2e
