#include "core/embedded_router.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/egress.hpp"
#include "core/ingress.hpp"
#include "net/domain.hpp"
#include "net/mix.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sw/semantics.hpp"

namespace empls::core {

namespace {

/// The drop book's reason for an engine's discard verdict.
obs::DropReason drop_reason(sw::DiscardReason r) noexcept {
  switch (r) {
    case sw::DiscardReason::kMiss:
      return obs::DropReason::kInfoBaseMiss;
    case sw::DiscardReason::kTtlExpired:
      return obs::DropReason::kTtlExpired;
    case sw::DiscardReason::kInconsistent:
      return obs::DropReason::kInconsistent;
    case sw::DiscardReason::kNone:
      break;
  }
  return obs::DropReason::kOther;
}

/// Engine-search span for the domain profiler: adds the host-clock
/// nanoseconds between construction and destruction to the executing
/// thread's armed accumulator (net::detail::search_accumulator()).
/// A disarmed thread — the default — pays one TLS load per engine call.
class SearchSpan {
 public:
  SearchSpan() noexcept
      : acc_(net::detail::search_accumulator()),
        t0_(acc_ != nullptr ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{}) {}
  ~SearchSpan() {
    if (acc_ != nullptr) {
      *acc_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count());
    }
  }
  SearchSpan(const SearchSpan&) = delete;
  SearchSpan& operator=(const SearchSpan&) = delete;

 private:
  std::uint64_t* acc_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

EmbeddedRouter::EmbeddedRouter(std::string name,
                               std::unique_ptr<sw::LabelEngine> engine,
                               RouterConfig config)
    : net::Node(std::move(name)),
      engine_(std::move(engine)),
      routing_(*engine_, config.label_base),
      config_(config),
      clock_(config.clock_hz) {
  assert(engine_ != nullptr);
  // The cache only arms for engines whose lookups are pure functions of
  // the information base: the RTL-backed engines mutate hardware state
  // per packet and the sharded engine's makespan model depends on every
  // packet reaching its shard, so both must see the full stream.
  if (config_.flow_cache_entries > 0 && engine_->cacheable()) {
    flow_cache_.resize(config_.flow_cache_entries);
  }
  if (config_.guard.enabled) {
    guard_.emplace(config_.guard);
  }
}

void EmbeddedRouter::set_guard(const net::GuardConfig& config) {
  config_.guard = config;
  if (config.enabled) {
    guard_.emplace(config);
  } else {
    guard_.reset();
  }
}

std::size_t EmbeddedRouter::cache_slot(unsigned level,
                                       rtl::u32 key) const noexcept {
  // mix64 over (level, key) — same spreading hash the sharded engine
  // uses, so adjacent labels do not collide in lockstep.
  return static_cast<std::size_t>(net::mix64_pair(level, key) %
                                  flow_cache_.size());
}

const EmbeddedRouter::CacheEntry* EmbeddedRouter::cache_probe(unsigned level,
                                                              rtl::u32 key) {
  const CacheEntry& e = flow_cache_[cache_slot(level, key)];
  if (!e.valid || e.level != level || e.key != key) {
    ++cache_stats_.misses;
    return nullptr;
  }
  if (e.epoch != engine_->epoch()) {
    // The information base changed since the fill; the line is dead no
    // matter what it says.  Counted as both an invalidation and a miss
    // (hit_rate stays hits / probes).
    ++cache_stats_.invalidations;
    ++cache_stats_.misses;
    return nullptr;
  }
  ++cache_stats_.hits;
  return &e;
}

void EmbeddedRouter::cache_fill(unsigned level, rtl::u32 key) {
  if (flow_cache_.empty()) {
    return;
  }
  const auto pair = engine_->lookup(level, key);
  if (!pair) {
    return;
  }
  flow_cache_[cache_slot(level, key)] =
      CacheEntry{true,  level, key, engine_->epoch(),
                 *pair, engine_->last_lookup_cost_cycles()};
  ++cache_stats_.insertions;
}

sw::UpdateOutcome EmbeddedRouter::cached_update(mpls::Packet& packet,
                                                const CacheEntry& entry) {
  const bool was_empty = packet.stack.empty();
  sw::UpdateOutcome out =
      sw::apply_update(packet, entry.pair, config_.type);
  // Recompose the engine's exact modelled cost: search cycles were
  // captured at fill time, the operation tail depends only on the
  // outcome — so hw_cycles (and hence the charged latency) is
  // bit-identical to the uncached path.  A zero search cost marks a
  // pure-software engine, whose outcomes carry hw_cycles = 0.
  out.hw_cycles = entry.search_cycles == 0
                      ? 0
                      : entry.search_cycles +
                            sw::update_tail_cycles(out, was_empty,
                                                   /*found=*/true);
  return out;
}

void EmbeddedRouter::count_op(mpls::LabelOp op) {
  switch (op) {
    case mpls::LabelOp::kPush:
      ++stats_.pushes;
      break;
    case mpls::LabelOp::kPop:
      ++stats_.pops;
      break;
    case mpls::LabelOp::kSwap:
      ++stats_.swaps;
      break;
    case mpls::LabelOp::kNop:
      break;
  }
}

void EmbeddedRouter::on_telemetry(obs::MetricsRegistry* metrics,
                                  obs::HopTracer* tracer) {
  tracer_ = tracer;
  hist_lookup_cycles_ = nullptr;
  hist_engine_wait_ns_ = nullptr;
  if (metrics != nullptr) {
    const std::string label = "router=\"" + name() + "\"";
    hist_lookup_cycles_ = &metrics->histogram(
        "empls_engine_lookup_cycles", label,
        "modelled engine cycles per search/update (0 = pure software)");
    hist_engine_wait_ns_ = &metrics->histogram(
        "empls_engine_wait_ns", label,
        "time a packet waited for the label engine datapath");
  }
}

void EmbeddedRouter::export_metrics(obs::MetricsRegistry& metrics) const {
  const std::string label = "router=\"" + name() + "\"";
  const auto set = [&](const char* name, std::uint64_t v,
                       const char* help = "") {
    metrics.counter(name, label, help).set(v);
  };
  set("empls_router_received_total", stats_.received, "packets received");
  set("empls_router_forwarded_total", stats_.forwarded);
  set("empls_router_delivered_total", stats_.delivered_local);
  set("empls_router_discarded_total", stats_.discarded);
  set("empls_router_malformed_total", stats_.malformed);
  set("empls_router_slow_path_retries_total", stats_.slow_path_retries);
  set("empls_router_engine_cycles_total", stats_.engine_cycles,
      "modelled hardware cycles consumed by the label engine");
  set("empls_router_engine_overruns_total", stats_.engine_overruns);
  set("empls_router_engine_batches_total", stats_.engine_batches);
  set("empls_router_engine_batched_packets_total",
      stats_.engine_batched_packets);
  set("empls_router_policer_drops_total", stats_.policer_drops);
  set("empls_router_policer_demotions_total", stats_.policer_demotions);
  if (guard_) {
    const auto& g = guard_->stats();
    set("empls_guard_reserved_drops_total", g.reserved_drops);
    set("empls_guard_spoof_drops_total", g.spoof_drops);
    set("empls_guard_ttl_limited_total", g.ttl_limited);
    set("empls_guard_reprogram_refusals_total", g.reprogram_refusals);
    set("empls_guard_demoted_total", g.demoted);
    set("empls_guard_shed_total", g.shed);
    set("empls_guard_admitted_total", g.admitted);
  }
  metrics.gauge("empls_router_engine_queue_peak", label)
      .set(static_cast<double>(stats_.engine_queue_peak));
  metrics
      .gauge("empls_router_engine_wait_seconds", label,
             "total time packets spent queued for the engine")
      .set(stats_.engine_wait_time);
  if (flow_cache_enabled()) {
    set("empls_flow_cache_hits_total", cache_stats_.hits);
    set("empls_flow_cache_misses_total", cache_stats_.misses);
    set("empls_flow_cache_insertions_total", cache_stats_.insertions);
    set("empls_flow_cache_invalidations_total", cache_stats_.invalidations);
  }
}

void EmbeddedRouter::set_policer(std::uint32_t flow_id,
                                 const net::PolicerConfig& config) {
  policers_.insert_or_assign(
      flow_id,
      std::make_pair(config,
                     net::TokenBucket(config.rate_bps, config.burst_bytes)));
}

void EmbeddedRouter::receive(net::PacketHandle packet,
                             mpls::InterfaceId in_if) {
  ++stats_.received;

  // Ingress packet processing: wire validation + classification.
  if (config_.validate_wire &&
      !IngressProcessor::wire_round_trip_ok(*packet)) {
    ++stats_.malformed;
    network()->notify_discard(id(), *packet, obs::DropReason::kMalformed);
    return;
  }
  const auto cls = IngressProcessor::classify(*packet);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->record(tracer_->id_of(packet.get()), obs::SpanKind::kIngress,
                    id(), network()->now(), 0.0,
                    static_cast<std::uint16_t>(cls.level), cls.key,
                    cls.labeled ? obs::kSpanLabeled : std::uint8_t{0});
  }

  // Penultimate-hop-popping egress: the packet arrives from a neighbour
  // already unlabeled; if it is for a locally attached prefix it leaves
  // the MPLS domain here without touching the label engine.
  if (!cls.labeled && in_if != net::kInjectInterface &&
      routing_.is_local(packet->dst)) {
    ++stats_.delivered_local;
    network()->deliver_local(id(), *packet);
    return;
  }

  // Ingress guard: reserved/spoofed-label screening and the TTL-expiry
  // budget run before the packet may queue for (and so consume) the
  // engine datapath.  Runs after the PHP local-delivery branch so guard
  // budgets never touch packets that exit the domain here.
  if (guard_) {
    const bool external = in_if == net::kInjectInterface;
    const bool will_expire =
        (cls.labeled ? packet->stack.top().ttl : packet->ip_ttl) <= 1;
    // The spoof screen asks the routing functionality (software state,
    // no engine cycles) whether the top label was ever programmed.
    const bool binding_known =
        !(cls.labeled && external) ||
        routing_.out_port(cls.level, cls.key).has_value();
    if (const auto refusal =
            guard_->screen(cls.labeled, cls.key, will_expire, external,
                           binding_known, network()->now())) {
      ++stats_.guard_drops;
      network()->notify_discard(id(), *packet, *refusal);
      return;
    }
  }

  // Ingress policing: unlabeled traffic is checked against its flow's
  // contract before it may consume a label (and the reserved bandwidth
  // behind it).
  if (!cls.labeled) {
    const auto policer = policers_.find(packet->flow_id);
    if (policer != policers_.end() &&
        !policer->second.second.conforms(packet->wire_size(),
                                         network()->now())) {
      if (policer->second.first.action == net::PolicerAction::kDrop) {
        ++stats_.policer_drops;
        network()->notify_discard(id(), *packet, obs::DropReason::kPolicer);
        return;
      }
      ++stats_.policer_demotions;
      packet->cos = 0;  // remark to best effort
    }
  }

  Pending work{std::move(packet), in_if, network()->now(), cls};
  if (!config_.serialize_engine) {
    process(std::move(work));
    return;
  }
  // The label stack modifier is a single datapath: one packet at a time.
  if (engine_busy_) {
    if (engine_queue_.size() >= config_.engine_queue_capacity) {
      ++stats_.engine_overruns;
      network()->notify_discard(id(), *work.packet,
                                obs::DropReason::kEngineOverrun);
      return;
    }
    // Graceful degradation: between the guard's occupancy bands and the
    // hard overrun above, arrivals are first demoted to best effort and
    // then shed lowest CoS first — the reserved classes see neither
    // until the queue is moments from the cliff.
    if (guard_) {
      const std::uint8_t eff_cos = work.cls.labeled
                                       ? work.packet->stack.top().cos
                                       : work.packet->cos;
      switch (guard_->load_action(engine_queue_.size(),
                                  config_.engine_queue_capacity, eff_cos)) {
        case net::IngressGuard::LoadAction::kShed:
          guard_->count_shed();
          ++stats_.guard_drops;
          network()->notify_discard(id(), *work.packet,
                                    obs::DropReason::kOverloadShed);
          return;
        case net::IngressGuard::LoadAction::kDemote:
          // Labeled transit keeps its marking (the shim's CoS is not
          // rewritable mid-LSP); ingress traffic is remarked here.
          if (!work.cls.labeled) {
            guard_->count_demoted();
            work.packet->cos = 0;
          }
          break;
        case net::IngressGuard::LoadAction::kAdmit:
          break;
      }
    }
    if (engine_queue_.capacity() == 0) {
      engine_queue_ = net::FixedRing<Pending>(config_.engine_queue_capacity);
    }
    engine_queue_.push(std::move(work));
    stats_.engine_queue_peak =
        std::max(stats_.engine_queue_peak, engine_queue_.size());
    return;
  }
  engine_busy_ = true;
  process(std::move(work));
}

void EmbeddedRouter::engine_done() {
  if (engine_queue_.empty()) {
    engine_busy_ = false;
    return;
  }
  const std::size_t batch_limit =
      std::max<std::size_t>(config_.engine_batch_size, 1);
  const std::size_t take = std::min(batch_limit, engine_queue_.size());
  if (take <= 1) {
    process(engine_queue_.pop());
    return;
  }
  // A backlog formed while the engine was busy: drain it as one batch.
  std::vector<Pending> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(engine_queue_.pop());
  }
  process_batch(std::move(batch));
}

void EmbeddedRouter::process(Pending work) {
  net::Network* net = network();
  const double wait = net->now() - work.enqueued_at;
  stats_.engine_wait_time += wait;
  if (hist_engine_wait_ns_ != nullptr) {
    hist_engine_wait_ns_->record(static_cast<std::uint64_t>(wait * 1e9));
  }

  const auto cls = work.cls;
  const mpls::Packet before = tap_ ? *work.packet : mpls::Packet();

  // Label stack modifier — or the flow cache standing in for it: a live
  // cached binding replays the identical update without the engine's
  // search (a cached outcome can never be a kMiss, so the slow path
  // below is naturally skipped).
  const CacheEntry* cached =
      flow_cache_.empty() ? nullptr : cache_probe(cls.level, cls.key);
  auto outcome = [&] {
    if (cached != nullptr) {
      return cached_update(*work.packet, *cached);
    }
    SearchSpan span;
    return engine_->update(*work.packet, cls.level, config_.type);
  }();
  double latency = outcome.hw_cycles > 0 ? clock_.seconds(outcome.hw_cycles)
                                         : config_.sw_update_latency_s;
  stats_.engine_cycles += outcome.hw_cycles;

  // Slow path: unlabeled packet with no exact hardware entry — ask the
  // routing functionality to install one from its FEC prefixes, retry.
  // Only an actual lookup miss qualifies (a TTL expiry would just
  // re-expire).  The guard's reprogram admission gates the install: an
  // exhaustion attack spraying fresh destinations reprograms the
  // information base (and invalidates every cached epoch) only at the
  // configured rate; refused packets are stamped with their own reason.
  std::optional<obs::DropReason> reason_override;
  if (outcome.discarded && outcome.reason == sw::DiscardReason::kMiss &&
      !cls.labeled && config_.type == hw::RouterType::kLer) {
    if (guard_ && !guard_->admit_reprogram(net->now())) {
      reason_override = obs::DropReason::kReprogramRateLimited;
    } else if (routing_.slow_path_install(cls.key)) {
      ++stats_.slow_path_retries;
      {
        SearchSpan span;
        outcome = engine_->update(*work.packet, cls.level, config_.type);
      }
      latency += outcome.hw_cycles > 0 ? clock_.seconds(outcome.hw_cycles)
                                       : config_.sw_update_latency_s;
      stats_.engine_cycles += outcome.hw_cycles;
    }
  }
  if (!cached) {
    cache_fill(cls.level, cls.key);  // resolve at the (post-install) epoch
  }
  if (hist_lookup_cycles_ != nullptr) {
    hist_lookup_cycles_->record(outcome.hw_cycles);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    const std::uint64_t tid = tracer_->id_of(work.packet.get());
    if (wait > 0.0) {
      tracer_->record(tid, obs::SpanKind::kEngineWait, id(),
                      work.enqueued_at, wait);
    }
    std::uint8_t flags = 0;
    if (!(outcome.discarded &&
          outcome.reason == sw::DiscardReason::kMiss)) {
      flags |= obs::kSpanHit;
    }
    if (cached != nullptr) {
      flags |= obs::kSpanCached;
    }
    tracer_->record(tid, obs::SpanKind::kEngineSearch, id(), net->now(),
                    latency, static_cast<std::uint16_t>(cls.level),
                    static_cast<std::uint32_t>(outcome.hw_cycles), flags);
  }

  // The datapath is busy for the processing latency; only then does the
  // next queued packet enter it.  The engine-idle transition rides inside
  // the launch event (same instant, same relative order, one event
  // instead of two); the discard paths launch nothing, so they fall back
  // to a dedicated event.
  const bool fuse = config_.serialize_engine;
  const bool fused = launch(std::move(work), cls, before, outcome, latency,
                            fuse, reason_override);
  if (fuse && !fused) {
    net->events().schedule_in(latency, [this] { engine_done(); });
  }
}

void EmbeddedRouter::process_batch(std::vector<Pending> work) {
  net::Network* net = network();
  const double now = net->now();
  const std::size_t n = work.size();

  std::vector<IngressProcessor::Classification> cls(n);
  std::vector<mpls::Packet*> packets(n);
  std::vector<mpls::Packet> befores(tap_ ? n : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double wait = now - work[i].enqueued_at;
    stats_.engine_wait_time += wait;
    if (hist_engine_wait_ns_ != nullptr) {
      hist_engine_wait_ns_->record(static_cast<std::uint64_t>(wait * 1e9));
    }
    cls[i] = work[i].cls;
    packets[i] = work[i].packet.get();
    if (tap_) {
      befores[i] = *work[i].packet;
    }
  }

  // Flow cache first: hits replay their cached binding inline; only the
  // misses enter the engine as a (smaller) batch.  Cycle accounting
  // composes back to exactly the uncached batch: for a single-datapath
  // engine the uncached makespan is the per-packet sum, and a hit
  // contributes the identical hw_cycles it would have cost in that sum.
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  std::vector<sw::UpdateOutcome> outcomes(n);
  std::vector<std::uint8_t> was_cached(tracing ? n : 0);
  std::vector<std::size_t> miss_idx;
  miss_idx.reserve(n);
  rtl::u64 hit_cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const CacheEntry* cached =
        flow_cache_.empty() ? nullptr
                            : cache_probe(cls[i].level, cls[i].key);
    if (cached) {
      outcomes[i] = cached_update(*packets[i], *cached);
      hit_cycles += outcomes[i].hw_cycles;
      if (tracing) {
        was_cached[i] = 1;
      }
    } else {
      miss_idx.push_back(i);
    }
  }
  rtl::u64 miss_makespan = 0;
  if (!miss_idx.empty()) {
    std::vector<mpls::Packet*> miss_packets;
    miss_packets.reserve(miss_idx.size());
    for (const std::size_t i : miss_idx) {
      miss_packets.push_back(packets[i]);
    }
    auto miss_outcomes = [&] {
      SearchSpan span;
      return engine_->update_batch(miss_packets, config_.type);
    }();
    miss_makespan = engine_->last_batch_makespan_cycles();
    ++stats_.engine_batches;
    stats_.engine_batched_packets += miss_idx.size();
    for (std::size_t j = 0; j < miss_idx.size(); ++j) {
      outcomes[miss_idx[j]] = miss_outcomes[j];
    }
  }
  for (const auto& outcome : outcomes) {
    stats_.engine_cycles += outcome.hw_cycles;
    if (hist_lookup_cycles_ != nullptr) {
      hist_lookup_cycles_->record(outcome.hw_cycles);
    }
  }

  // The batch holds the engine for its makespan: the slowest shard for
  // a parallel engine, the per-packet sum for a single datapath (cache
  // hits fold their — identical — cycles back into that sum).  Pure
  // software planes are charged per packet over the FULL batch, divided
  // by the engine's parallelism, so timing matches the uncached run.
  const rtl::u64 total_cycles = miss_makespan + hit_cycles;
  double latency;
  if (total_cycles > 0) {
    latency = clock_.seconds(total_cycles);
  } else {
    const double par = std::max(1u, engine_->parallelism());
    latency = config_.sw_update_latency_s *
              std::ceil(static_cast<double>(n) / par);
  }

  // Slow-path retries stay per packet (they are rare and reprogram the
  // information base between updates).  As in process(), the guard's
  // reprogram admission gates each install.
  std::vector<std::uint8_t> reprogram_refused(guard_ ? n : 0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(outcomes[i].discarded &&
          outcomes[i].reason == sw::DiscardReason::kMiss &&
          !cls[i].labeled && config_.type == hw::RouterType::kLer)) {
      continue;
    }
    if (guard_ && !guard_->admit_reprogram(now)) {
      reprogram_refused[i] = 1;
      continue;
    }
    if (routing_.slow_path_install(cls[i].key)) {
      ++stats_.slow_path_retries;
      {
        SearchSpan span;
        outcomes[i] = engine_->update(*work[i].packet, cls[i].level,
                                      config_.type);
      }
      latency += outcomes[i].hw_cycles > 0
                     ? clock_.seconds(outcomes[i].hw_cycles)
                     : config_.sw_update_latency_s;
      stats_.engine_cycles += outcomes[i].hw_cycles;
    }
  }
  for (const std::size_t i : miss_idx) {
    cache_fill(cls[i].level, cls[i].key);
  }

  if (tracing) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t tid = tracer_->id_of(packets[i]);
      const double wait = now - work[i].enqueued_at;
      if (wait > 0.0) {
        tracer_->record(tid, obs::SpanKind::kEngineWait, id(),
                        work[i].enqueued_at, wait);
      }
      std::uint8_t flags = 0;
      if (!(outcomes[i].discarded &&
            outcomes[i].reason == sw::DiscardReason::kMiss)) {
        flags |= obs::kSpanHit;
      }
      if (was_cached[i] != 0) {
        flags |= obs::kSpanCached;
      }
      tracer_->record(tid, obs::SpanKind::kEngineSearch, id(), now, latency,
                      static_cast<std::uint16_t>(cls[i].level),
                      static_cast<std::uint32_t>(outcomes[i].hw_cycles),
                      flags);
    }
    // One occupancy span for the whole batch; renders as shard-handoff
    // when the engine is actually parallel.
    tracer_->record(0, obs::SpanKind::kEngineBatch, id(), now, latency,
                    static_cast<std::uint16_t>(
                        std::max(1u, engine_->parallelism())),
                    static_cast<std::uint32_t>(n));
  }

  if (config_.serialize_engine) {
    net->events().schedule_in(latency, [this] { engine_done(); });
  }

  for (std::size_t i = 0; i < n; ++i) {
    launch(std::move(work[i]), cls[i],
           tap_ ? befores[i] : mpls::Packet(), outcomes[i], latency,
           /*fuse_engine_done=*/false,  // one engine_done serves the batch
           !reprogram_refused.empty() && reprogram_refused[i] != 0
               ? std::optional(obs::DropReason::kReprogramRateLimited)
               : std::nullopt);
  }
}

bool EmbeddedRouter::launch(Pending work,
                            const IngressProcessor::Classification& cls,
                            const mpls::Packet& before,
                            const sw::UpdateOutcome& outcome,
                            double latency, bool fuse_engine_done,
                            std::optional<obs::DropReason>
                                discard_reason_override) {
  net::Network* net = network();
  net::PacketHandle packet = std::move(work.packet);

  if (tap_) {
    tap_(*this, before, *packet, outcome.applied, outcome.discarded);
  }
  if (outcome.discarded) {
    ++stats_.discarded;
    net->notify_discard(id(), *packet,
                        discard_reason_override.value_or(
                            drop_reason(outcome.reason)));
    return false;
  }
  count_op(outcome.applied);

  // Next-hop resolution is software state keyed by the pre-update key.
  const auto port = routing_.out_port(cls.level, cls.key);
  if (!port) {
    ++stats_.discarded;  // control plane never told us where this goes
    net->notify_discard(id(), *packet, obs::DropReason::kNoRoute);
    return false;
  }

  // Egress packet processing, then launch after the processing latency.
  // When fused, engine_done() runs first inside the event — the same
  // relative order the split formulation had.
  EgressProcessor::finalize(*packet, outcome.ttl_after);
  const mpls::InterfaceId out = *port;
  if (out == mpls::kLocalDeliver) {
    ++stats_.delivered_local;
    net->events().schedule_in(
        latency,
        [this, net, fuse_engine_done, p = std::move(packet)]() mutable {
          if (fuse_engine_done) {
            engine_done();
          }
          net->deliver_local(id(), *p);
        });
  } else {
    ++stats_.forwarded;
    net->events().schedule_in(
        latency,
        [this, out, fuse_engine_done, p = std::move(packet)]() mutable {
          if (fuse_engine_done) {
            engine_done();
          }
          send(std::move(p), out);
        });
  }
  return fuse_engine_done;
}

}  // namespace empls::core
