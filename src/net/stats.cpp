#include "net/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace empls::net {

void LatencyStats::record(double seconds) {
  if (samples_.empty()) {
    min_ = max_ = seconds;
  } else {
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
  }
  sum_ += seconds;
  samples_.push_back(seconds);
  sorted_ = false;
}

double LatencyStats::percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  assert(p >= 0.0 && p <= 1.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[std::min(idx, samples_.size() - 1)];
}

void FlowStats::on_sent(const mpls::Packet& packet) {
  ++flows_[packet.flow_id].sent;
  ++total_sent_;
}

void FlowStats::on_delivered(const mpls::Packet& packet, SimTime now) {
  Flow& f = flows_[packet.flow_id];
  ++f.delivered;
  f.bytes_delivered += packet.wire_size();
  const double transit = now - packet.created_at;
  f.latency.record(transit);
  if (f.last_transit >= 0.0) {
    const double d = std::abs(transit - f.last_transit);
    f.jitter += (d - f.jitter) / 16.0;  // RFC 3550 §6.4.1
  }
  f.last_transit = transit;
  ++total_delivered_;
}

const FlowStats::Flow& FlowStats::flow(std::uint32_t flow_id) const {
  const auto it = flows_.find(flow_id);
  assert(it != flows_.end());
  return it->second;
}

std::string SimStats::summary() const {
  std::ostringstream out;
  // The always-zero rebuild count is left out: the summary is the
  // fingerprint that differential runs compare.
  out << "events=" << events_executed << " inline=" << events_inline
      << " heap_fallback=" << events_heap_fallback
      << " clamped=" << clamped_schedules
      << " packets=" << packets_acquired
      << " recycled=" << packets_recycled
      << " pool_high_water=" << pool_high_water;
  return out.str();
}

std::string FlowCacheStats::summary() const {
  std::ostringstream out;
  out << "hits=" << hits << " misses=" << misses
      << " inval=" << invalidations << " fills=" << insertions
      << " hit_rate=" << hit_rate() * 100.0 << "%";
  return out.str();
}

std::string FlowStats::summary() const {
  std::ostringstream out;
  for (const auto& [id, f] : flows_) {
    out << "flow " << id << ": sent=" << f.sent
        << " delivered=" << f.delivered << " loss=" << f.loss_rate() * 100.0
        << "% mean=" << f.latency.mean() * 1e3
        << "ms p99=" << f.latency.percentile(0.99) * 1e3
        << "ms jitter=" << f.jitter * 1e3 << "ms\n";
  }
  return out.str();
}

}  // namespace empls::net
