// Measurement helpers: latency distributions and per-flow accounting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpls/packet.hpp"
#include "net/event_queue.hpp"

namespace empls::net {

/// Streaming latency statistics with exact percentiles (all samples are
/// kept; simulation scales make that cheap).
class LatencyStats {
 public:
  void record(double seconds);

  [[nodiscard]] std::uint64_t count() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] double min() const noexcept { return count() ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count() ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count() ? sum_ / static_cast<double>(count()) : 0.0;
  }
  /// Exact percentile, p in [0,1].  0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Snapshot of the simulator's own fast-path counters: event-queue
/// inline/heap split and past-time clamps, plus packet-pool recycling.
/// Network::sim_stats() fills one; the scenario report prints it.
struct SimStats {
  std::uint64_t events_executed = 0;
  std::uint64_t events_inline = 0;         // closures in the 64-byte buffer
  std::uint64_t events_heap_fallback = 0;  // oversized closures
  std::uint64_t clamped_schedules = 0;     // schedule_at(at < now()) fixups
  std::uint64_t calendar_rebuilds = 0;     // always 0; bench_e2e reads it
  std::uint64_t packets_acquired = 0;
  std::uint64_t packets_recycled = 0;
  std::size_t pool_high_water = 0;  // peak concurrent pooled packets

  /// "events=... inline=... heap=... clamped=... pool_high_water=..."
  [[nodiscard]] std::string summary() const;
};

/// Per-router flow-cache counters (EmbeddedRouter's direct-mapped cache
/// of resolved (level, key) → label-pair bindings).  Every probe is a
/// hit or a miss; an invalidation is the subset of misses where the tag
/// matched but the engine's epoch had moved on (the information base
/// was reprogrammed, corrupted or cleared underneath the entry).
struct FlowCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t insertions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t probes = hits + misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(probes);
  }

  /// "hits=... misses=... inval=... fills=... hit_rate=..%"
  [[nodiscard]] std::string summary() const;
};

/// Per-flow delivery accounting, fed by the traffic sources (on_sent) and
/// the network's delivery handler (on_delivered).
class FlowStats {
 public:
  void on_sent(const mpls::Packet& packet);
  void on_delivered(const mpls::Packet& packet, SimTime now);

  struct Flow {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t bytes_delivered = 0;
    LatencyStats latency;
    /// RFC 3550 interarrival jitter estimate (smoothed |Δtransit|,
    /// gain 1/16) — the metric VoIP playout buffers are sized by.
    double jitter = 0.0;
    double last_transit = -1.0;

    [[nodiscard]] double loss_rate() const noexcept {
      return sent == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(delivered) /
                             static_cast<double>(sent);
    }
  };

  [[nodiscard]] const Flow& flow(std::uint32_t flow_id) const;
  [[nodiscard]] bool has_flow(std::uint32_t flow_id) const {
    return flows_.contains(flow_id);
  }
  [[nodiscard]] const std::map<std::uint32_t, Flow>& flows() const noexcept {
    return flows_;
  }

  [[nodiscard]] std::uint64_t total_sent() const noexcept {
    return total_sent_;
  }
  [[nodiscard]] std::uint64_t total_delivered() const noexcept {
    return total_delivered_;
  }

  /// "flow 3: sent=100 delivered=98 loss=2.0% mean=1.23ms p99=4.5ms" rows.
  [[nodiscard]] std::string summary() const;

 private:
  std::map<std::uint32_t, Flow> flows_;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_delivered_ = 0;
};

}  // namespace empls::net
