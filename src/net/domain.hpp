// Partitioned event execution: per-domain event queues with conservative
// lookahead.
//
// Network::partition() splits the topology's nodes into *event domains*.
// Each domain owns its own EventQueue and PacketPool (domain 0 aliases
// the network's), so the hot per-hop state — the event heap, the
// packet slabs, the freelist — is private to one execution context and
// never bounces between caches.  Links whose endpoints live in different
// domains become *boundary links*: instead of scheduling the arrival on
// the destination's queue directly, they push a Handoff record through a
// lock-free SPSC ring, and the destination domain converts drained
// handoffs back into local arrival events.
//
// The synchronisation rule is classic conservative (null-message-free)
// lookahead: with W = min propagation delay over all boundary links, a
// domain whose earliest pending event is at T can safely execute every
// event before min-over-domains(T) + W, because anything a neighbour
// sends it is in flight for at least W seconds.  Two execution modes
// share that invariant:
//
//   kDeterministic — one thread interleaves single events from all
//     domain queues in global (time, domain) order and drains rings
//     after every event.  Aggregate results (flow accounting, drop
//     partitions, delivery books) are identical to the unpartitioned
//     simulator; this is the differential-testing and debugging mode.
//
//   kFree — one worker thread per domain; a barrier-synchronised window
//     loop plans [T, T+W) windows, runs them in parallel, then drains
//     the rings while quiesced.  Within a domain execution order is the
//     sequential order; across domains only the lookahead bound holds.
//
// Handoffs copy the packet payload by value through the ring (the slot,
// the producer scratch and the consumer inbox all keep their buffer
// capacity), release the source handle into the source pool, and
// re-acquire from the destination pool — so each pool stays
// single-threaded and steady-state crossings allocate nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "mpls/packet.hpp"
#include "net/event_queue.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "sw/spsc_ring.hpp"

namespace empls::net {

class Network;

/// How partitioned domains synchronise; see the header comment.
enum class SyncMode : std::uint8_t { kDeterministic, kFree };

[[nodiscard]] std::string_view to_string(SyncMode mode) noexcept;

namespace detail {
/// Thread-local execution context used to route Network::events() /
/// pool() / now() to the calling domain's queue and pool.  Defined in
/// network.cpp; the runtime sets it around every slice of domain code.
void set_active_domain(const Network* net, EventQueue* events,
                       PacketPool* pool, std::uint32_t index) noexcept;
void clear_active_domain() noexcept;
[[nodiscard]] std::uint32_t active_domain_index(const Network* net) noexcept;

/// Thread-local engine-search accumulator for the domain profiler.
/// When non-null, EmbeddedRouter adds the host-clock nanoseconds of
/// every label-engine update/search call to it; the runtime points it
/// at the executing domain's PhaseProfile::search_ns.  A disarmed
/// thread (the default) costs one TLS load per engine call.
void set_search_accumulator(std::uint64_t* acc) noexcept;
[[nodiscard]] std::uint64_t* search_accumulator() noexcept;
}  // namespace detail

class DomainRuntime {
 public:
  /// One packet crossing a domain boundary: the arrival time computed by
  /// the source link's transmitter plus the destination coordinates.
  /// Travels by copy assignment end to end so every staging buffer keeps
  /// its payload/label-stack capacity.
  struct Handoff {
    SimTime at = 0.0;
    NodeId dst_node = 0;
    mpls::InterfaceId dst_if = 0;
    /// Journey id carried across the boundary so the hop tracer can
    /// re-key the packet's journey to its new pool address (the copy
    /// changes the address the tracer keys on).  0 = untracked.  Only
    /// the deterministic merge populates this — the tracer's journey
    /// table is single-threaded.
    std::uint64_t trace_id = 0;
    mpls::Packet packet;
  };

  /// Wall-clock phase accounting for one domain's execution context,
  /// armed by enable_profiling().  Host (steady_clock) nanoseconds.
  /// dispatch_ns excludes the engine-search time nested inside event
  /// execution, so the four phases partition the measured time:
  ///   kFree          — per worker thread: wall_ns covers the whole
  ///     worker loop; barrier_ns both barrier waits, dispatch_ns the
  ///     window execution, handoff_ns the quiesced ring drains.
  ///   kDeterministic — one merge thread: the queue scan / clock
  ///     advance (the merge's analogue of a barrier) and the ring
  ///     drains land on the *executing* domain's profile along with
  ///     dispatch/search; wall_ns accrues on domain 0 only.
  struct PhaseProfile {
    std::uint64_t dispatch_ns = 0;  // event execution minus engine search
    std::uint64_t search_ns = 0;    // label-engine update/search calls
    std::uint64_t handoff_ns = 0;   // draining boundary rings
    std::uint64_t barrier_ns = 0;   // barrier waits / merge scan+advance
    std::uint64_t wall_ns = 0;      // total wall inside run()
  };

  /// Per-domain execution counters (exported as empls_domain_* metrics).
  struct Counters {
    std::uint64_t executed = 0;       // events run by this domain
    std::uint64_t windows = 0;        // lookahead windows entered (kFree)
    std::uint64_t idle_windows = 0;   // windows that ran zero events
    std::uint64_t handoffs_out = 0;   // packets pushed to other domains
    std::uint64_t handoffs_in = 0;    // packets drained from other domains
    std::uint64_t ring_overflows = 0; // pushes that spilled past the ring
    std::uint64_t delivered = 0;      // local deliveries counted here
  };

  /// Builds the partition over `net`'s current topology: per-domain
  /// queues/pools, link rebinding, boundary rings and handoff hooks.
  /// `node_domain[id]` maps each node to its domain (< domain_count).
  /// Construct via Network::partition(), after the topology is built
  /// and before any traffic is scheduled.
  DomainRuntime(Network& net, std::vector<std::uint32_t> node_domain,
                std::uint32_t domain_count, SyncMode mode);
  ~DomainRuntime();
  DomainRuntime(const DomainRuntime&) = delete;
  DomainRuntime& operator=(const DomainRuntime&) = delete;

  [[nodiscard]] std::uint32_t domain_count() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }
  [[nodiscard]] SyncMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::uint32_t domain_of(NodeId id) const {
    return node_domain_[id];
  }
  /// Conservative lookahead W: min propagation delay over boundary
  /// links; +inf when no link crosses a boundary (domains are fully
  /// independent and each runs as one unbounded window).
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] std::size_t boundary_link_count() const noexcept {
    return boundary_links_;
  }
  /// Introspection for the partition-correctness tests: whether a
  /// src→dst ring exists, and how many directed links feed it.
  [[nodiscard]] bool has_ring(std::uint32_t src, std::uint32_t dst) const;
  [[nodiscard]] std::size_t boundary_links(std::uint32_t src,
                                           std::uint32_t dst) const;

  [[nodiscard]] EventQueue& events(std::uint32_t domain) {
    return *queues_[domain];
  }
  [[nodiscard]] PacketPool& pool(std::uint32_t domain) {
    return *pools_[domain];
  }
  [[nodiscard]] const Counters& counters(std::uint32_t domain) const {
    return counters_[domain].c;
  }

  /// Arm (or disarm) per-domain phase profiling.  Costs a few
  /// steady_clock reads per event (deterministic) or per window (free)
  /// while armed; zero-cost branch when off.  Toggle only between
  /// run() calls.
  void enable_profiling(bool on) noexcept { profiling_ = on; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  [[nodiscard]] const PhaseProfile& profile(std::uint32_t domain) const {
    return profiles_[domain].p;
  }

  /// Run all domains up to and including `until` (run_until semantics of
  /// the single queue), or to quiescence.  Dispatches on mode().
  std::uint64_t run_until(SimTime until);
  std::uint64_t run();

  /// Free-running mode splits the delivery count per domain to keep the
  /// counter off the shared books mutex; Network sums it back in.
  void count_delivery(std::uint32_t domain) noexcept {
    ++counters_[domain].c.delivered;
  }
  [[nodiscard]] std::uint64_t delivered_sum() const noexcept;
  [[nodiscard]] std::uint64_t handoffs_in_sum() const noexcept;
  [[nodiscard]] std::uint64_t windows_sum() const noexcept;

  /// Memberwise sums over every domain's queue / pool (domain 0 is the
  /// network's own).  high_water sums to "peak resident packets across
  /// all domains" — each pool's peak is tracked independently.
  [[nodiscard]] EventQueue::Stats queue_stats() const;
  [[nodiscard]] PacketPool::Stats pool_stats() const;

 private:
  /// One boundary src→dst channel.  The ring is the steady-state path;
  /// `overflow` catches bursts larger than the ring (drained together,
  /// never concurrently with pushes — the barrier/merge quiesces the
  /// producer first, so no lock is needed).  `scratch` (producer) and
  /// `inbox` (consumer) are persistent staging slots whose packet
  /// buffers keep their capacity across crossings.
  struct Ring {
    sw::SpscRing<Handoff> ring;
    std::vector<Handoff> overflow;
    Handoff scratch;
    Handoff inbox;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::size_t links = 0;  // directed boundary links feeding this ring
  };

  struct alignas(64) PaddedCounters {
    Counters c;
  };

  struct alignas(64) PaddedProfile {
    PhaseProfile p;
  };

  void push_handoff(Ring& r, SimTime at, NodeId dst_node,
                    mpls::InterfaceId dst_if, const mpls::Packet& packet);
  void drain_ring(Ring& r);
  void deliver_handoff(Ring& r, const Handoff& h);
  std::uint64_t run_deterministic(SimTime until);
  std::uint64_t run_free(SimTime until);

  Network& net_;
  SyncMode mode_;
  std::vector<std::uint32_t> node_domain_;
  SimTime lookahead_ = std::numeric_limits<SimTime>::infinity();
  std::size_t boundary_links_ = 0;

  // Pools before queues: pending events hold PacketHandles that release
  // into these pools, so queues must be destroyed first.  Slot 0 of the
  // alias vectors points at the network's own queue/pool.
  std::vector<std::unique_ptr<PacketPool>> owned_pools_;
  std::vector<std::unique_ptr<EventQueue>> owned_queues_;
  std::vector<PacketPool*> pools_;
  std::vector<EventQueue*> queues_;

  std::vector<std::unique_ptr<Ring>> rings_;  // creation order = drain order
  std::vector<Ring*> ring_table_;             // D*D, nullptr when no boundary
  std::vector<PaddedCounters> counters_;
  std::vector<PaddedProfile> profiles_;
  bool profiling_ = false;
};

}  // namespace empls::net
