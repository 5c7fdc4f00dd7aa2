// The embedded MPLS router (Figure 6): ingress packet processing →
// label stack modifier (any LabelEngine: the cycle-accurate RTL, the
// analytically-costed linear engine, or the software baselines) →
// egress packet processing, with the routing functionality programming
// the information base from the control plane.
//
// Per received packet:
//   1. ingress processing classifies (level, key) and validates the wire
//      form;
//   2. the engine runs the update-stack flow on the label stack;
//   3. a miss on an unlabeled packet falls back to the software slow
//      path (FEC prefix lookup → install exact hardware entry → retry);
//   4. processing latency is charged: the engine's modelled cycles at
//      the configured clock for hardware engines, a fixed per-packet
//      cost for pure-software engines;
//   5. egress processing finalises the packet, which is then forwarded
//      out the software-resolved port or delivered off the MPLS domain.
#pragma once

#include <cstdint>
#include <map>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/ingress.hpp"

#include "core/routing_functionality.hpp"
#include "hw/commands.hpp"
#include "net/guard.hpp"
#include "net/node.hpp"
#include "net/policer.hpp"
#include "net/qos.hpp"
#include "net/stats.hpp"
#include "rtl/clock_model.hpp"
#include "sw/engine.hpp"

namespace empls::obs {
class Histogram;
}  // namespace empls::obs

namespace empls::core {

struct RouterConfig {
  hw::RouterType type = hw::RouterType::kLsr;
  /// Clock for converting engine cycles to time (paper: 50 MHz Stratix).
  double clock_hz = rtl::ClockModel::kPaperFrequencyHz;
  /// Charged when the engine reports no hardware cycle model (pure
  /// software); default approximates a mid-2000s software router's
  /// per-packet MPLS path.
  double sw_update_latency_s = 2e-6;
  /// Validate serialize/parse round trips on every packet.
  bool validate_wire = true;
  /// First label this router's allocator hands out (label spaces are
  /// per-router; distinct bases make multi-router traces readable).
  std::uint32_t label_base = mpls::kFirstUnreservedLabel;
  /// The label stack modifier processes one packet at a time (the
  /// hardware has a single datapath); arrivals queue for it.  Disable
  /// to model an idealised infinitely-parallel engine.
  bool serialize_engine = true;
  /// Packets waiting for the engine beyond this bound are dropped
  /// (input-queue overrun — the router is saturated).
  std::size_t engine_queue_capacity = 256;
  /// When > 1 and a backlog has formed, up to this many queued packets
  /// enter the engine together via LabelEngine::update_batch; the
  /// engine is then busy for the batch's modelled makespan (parallel
  /// shards overlap), not the per-packet sum.  1 = per-packet service.
  std::size_t engine_batch_size = 1;
  /// Direct-mapped flow cache: resolved (level, key) → label-pair
  /// bindings bypass the engine's search on repeat packets.  Entries
  /// carry the engine epoch at fill time and go stale the moment the
  /// information base changes (write_pair / clear / corrupt_entry /
  /// reprogram / protection switchover all bump the epoch), so cached
  /// outcomes are always bit-identical to the uncached path — including
  /// the modelled Table 6 cycles, recomposed from the cached search
  /// cost.  0 = off.  Ignored (with a stat-visible fallback to off) for
  /// engines that must see every packet (hw, pipeline, sharded).
  std::size_t flow_cache_entries = 0;
  /// Ingress guard (overload survival): reserved/spoofed-label
  /// screening, TTL-expiry and reprogram rate limits, and graceful
  /// degradation bands over the engine queue.  Disabled by default — an
  /// unguarded router behaves exactly as before this stage existed.
  net::GuardConfig guard{};
};

class EmbeddedRouter : public net::Node {
 public:
  EmbeddedRouter(std::string name, std::unique_ptr<sw::LabelEngine> engine,
                 RouterConfig config = {});

  void receive(net::PacketHandle packet, mpls::InterfaceId in_if) override;

  /// Telemetry wiring: registers the engine-lookup and engine-wait
  /// histograms and stashes the tracer for per-packet spans.
  void on_telemetry(obs::MetricsRegistry* metrics,
                    obs::HopTracer* tracer) override;
  /// Snapshot this router's Stats and flow-cache counters.
  void export_metrics(obs::MetricsRegistry& metrics) const override;

  [[nodiscard]] RoutingFunctionality& routing() noexcept { return routing_; }
  [[nodiscard]] sw::LabelEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const RouterConfig& config() const noexcept {
    return config_;
  }

  /// Observation hook: called once per processed (non-malformed) packet
  /// with the packet as it arrived, as it left the modifier, and the
  /// operation applied (kNop when discarded).  Used by examples and
  /// tests to watch label stacks evolve hop by hop.
  using PacketTap = std::function<void(
      const EmbeddedRouter&, const mpls::Packet& before,
      const mpls::Packet& after, mpls::LabelOp applied, bool discarded)>;
  void set_packet_tap(PacketTap tap) { tap_ = std::move(tap); }

  /// Ingress policing: police unlabeled packets of `flow_id` against a
  /// token bucket.  Excess is dropped or demoted to best effort per the
  /// config (the data-plane half of admission control).
  void set_policer(std::uint32_t flow_id, const net::PolicerConfig& config);

  /// Arm (or re-arm) the ingress guard after construction; a config
  /// with enabled=false disarms it.
  void set_guard(const net::GuardConfig& config);
  /// Whether an armed guard screens arrivals.
  [[nodiscard]] bool guard_enabled() const noexcept {
    return guard_.has_value();
  }
  /// Guard refusal tallies (zeros when no guard is armed).
  [[nodiscard]] const net::GuardStats& guard_stats() const noexcept {
    static constexpr net::GuardStats kNone{};
    return guard_ ? guard_->stats() : kNone;
  }

  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t discarded = 0;
    std::uint64_t malformed = 0;
    std::uint64_t slow_path_retries = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t swaps = 0;
    std::uint64_t engine_cycles = 0;   // modelled hardware cycles total
    std::uint64_t engine_overruns = 0; // dropped: engine queue full
    std::size_t engine_queue_peak = 0; // deepest engine backlog seen
    double engine_wait_time = 0.0;     // total seconds spent queued
    std::uint64_t engine_batches = 0;  // update_batch invocations
    std::uint64_t engine_batched_packets = 0;  // packets served in batches
    std::uint64_t policer_drops = 0;
    std::uint64_t policer_demotions = 0;
    /// Ingress-guard refusals in total (per-cause split in GuardStats).
    std::uint64_t guard_drops = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Flow-cache probe counters (all zero when the cache is off).
  [[nodiscard]] const net::FlowCacheStats& cache_stats() const noexcept {
    return cache_stats_;
  }
  /// Whether the cache is actually active (configured on AND the engine
  /// is cacheable).
  [[nodiscard]] bool flow_cache_enabled() const noexcept {
    return !flow_cache_.empty();
  }

 private:
  struct Pending {
    net::PacketHandle packet;
    mpls::InterfaceId in_if;
    double enqueued_at;
    // Classified once at receive; the engine never mutates the packet
    // before process() runs, so re-deriving it there would be waste.
    IngressProcessor::Classification cls;
  };

  void count_op(mpls::LabelOp op);
  /// Run the label engine on one packet and launch the result.
  void process(Pending work);
  /// Run the label engine on a backlog batch and launch every result.
  void process_batch(std::vector<Pending> work);
  /// Post-engine half shared by both paths: tap, discard accounting,
  /// next-hop resolution, egress finalisation, and the delayed launch.
  /// When `fuse_engine_done` is set and a launch event is scheduled, the
  /// engine-idle transition rides inside it (one event, not two);
  /// returns whether it did, so process() can fall back to a separate
  /// event on the discard paths.
  /// `discard_reason_override`, when non-empty, replaces the engine's
  /// discard reason string (the guard's reprogram-admission refusal
  /// re-stamps a lookup miss as kReprogramRateLimited).
  bool launch(Pending work, const IngressProcessor::Classification& cls,
              const mpls::Packet& before, const sw::UpdateOutcome& outcome,
              double latency, bool fuse_engine_done,
              std::string_view discard_reason_override = {});
  /// Start the next queued packet or batch, if any (engine went idle).
  void engine_done();

  /// One direct-mapped flow-cache line.  `search_cycles` is the
  /// engine's modelled search cost for this key (0 marks a
  /// pure-software engine, where hw_cycles must stay 0 on a hit so the
  /// sw latency model applies exactly as it does uncached).
  struct CacheEntry {
    bool valid = false;
    unsigned level = 0;
    rtl::u32 key = 0;
    rtl::u64 epoch = 0;
    mpls::LabelPair pair{};
    rtl::u64 search_cycles = 0;
  };
  [[nodiscard]] std::size_t cache_slot(unsigned level,
                                       rtl::u32 key) const noexcept;
  /// Probe for a live entry: tag must match AND its epoch must equal the
  /// engine's current epoch.  Counts the hit/miss/invalidation.
  [[nodiscard]] const CacheEntry* cache_probe(unsigned level, rtl::u32 key);
  /// Re-resolve (level, key) against the engine at the current epoch and
  /// cache the binding (no-op on a lookup miss — negative results are
  /// never cached, so the slow path stays observable).
  void cache_fill(unsigned level, rtl::u32 key);
  /// Engine-equivalent update from a cached binding: same stack
  /// mutation, same UpdateOutcome, same modelled cycles.
  sw::UpdateOutcome cached_update(mpls::Packet& packet,
                                  const CacheEntry& entry);

  std::unique_ptr<sw::LabelEngine> engine_;
  RoutingFunctionality routing_;
  RouterConfig config_;
  rtl::ClockModel clock_;
  Stats stats_;
  PacketTap tap_;
  /// Packets waiting for the busy engine.  Allocated at
  /// engine_queue_capacity when the first packet queues, so a router
  /// whose engine never backs up holds no ring.
  net::FixedRing<Pending> engine_queue_;
  std::vector<CacheEntry> flow_cache_;  // empty = cache off
  net::FlowCacheStats cache_stats_;
  bool engine_busy_ = false;
  std::map<std::uint32_t, std::pair<net::PolicerConfig, net::TokenBucket>>
      policers_;
  std::optional<net::IngressGuard> guard_;  // nullopt = no guard stage
  obs::HopTracer* tracer_ = nullptr;
  obs::Histogram* hist_lookup_cycles_ = nullptr;
  obs::Histogram* hist_engine_wait_ns_ = nullptr;
};

}  // namespace empls::core
