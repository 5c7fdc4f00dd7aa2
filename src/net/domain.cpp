#include "net/domain.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cmath>
#include <thread>

#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"

namespace empls::net {

namespace detail {
namespace {
thread_local std::uint64_t* t_search_acc = nullptr;
}  // namespace

void set_search_accumulator(std::uint64_t* acc) noexcept {
  t_search_acc = acc;
}

std::uint64_t* search_accumulator() noexcept { return t_search_acc; }
}  // namespace detail

namespace {

using ProfClock = std::chrono::steady_clock;

inline std::uint64_t ns_between(ProfClock::time_point a,
                                ProfClock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

inline ProfClock::time_point prof_now(bool armed) noexcept {
  return armed ? ProfClock::now() : ProfClock::time_point{};
}

}  // namespace

std::string_view to_string(SyncMode mode) noexcept {
  switch (mode) {
    case SyncMode::kDeterministic:
      return "deterministic";
    case SyncMode::kFree:
      return "free";
  }
  return "?";
}

DomainRuntime::DomainRuntime(Network& net,
                             std::vector<std::uint32_t> node_domain,
                             std::uint32_t domain_count, SyncMode mode)
    : net_(net), mode_(mode), node_domain_(std::move(node_domain)) {
  assert(domain_count >= 1);
  assert(node_domain_.size() == net.num_nodes());

  pools_.resize(domain_count);
  queues_.resize(domain_count);
  pools_[0] = &net.pool();
  queues_[0] = &net.events();
  owned_pools_.reserve(domain_count - 1);
  owned_queues_.reserve(domain_count - 1);
  for (std::uint32_t d = 1; d < domain_count; ++d) {
    owned_pools_.push_back(std::make_unique<PacketPool>());
    pools_[d] = owned_pools_.back().get();
    owned_queues_.push_back(std::make_unique<EventQueue>());
    queues_[d] = owned_queues_.back().get();
  }
  counters_.resize(domain_count);
  profiles_.resize(domain_count);
  ring_table_.assign(static_cast<std::size_t>(domain_count) * domain_count,
                     nullptr);

  // Walk every directed link exactly once through the adjacency lists:
  // rebind it to its source domain's queue, and give cross-domain links
  // a handoff hook feeding the src→dst ring.
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const std::uint32_t s = node_domain_[id];
    for (const Network::Adjacency& adj : net.adjacency(id)) {
      Link& l = net.link_from(id, adj.port);
      l.rebind_events(*queues_[s]);
      const std::uint32_t d = node_domain_[adj.neighbor];
      if (d == s) {
        continue;
      }
      ++boundary_links_;
      lookahead_ = std::min(lookahead_, l.prop_delay());
      Ring*& slot = ring_table_[static_cast<std::size_t>(s) * domain_count + d];
      if (slot == nullptr) {
        rings_.push_back(std::make_unique<Ring>());
        slot = rings_.back().get();
        slot->src = s;
        slot->dst = d;
      }
      ++slot->links;
      Ring* ring = slot;
      const NodeId dst_node = adj.neighbor;
      const mpls::InterfaceId dst_if = l.dst_interface();
      l.set_handoff_hook(
          [this, ring, dst_node, dst_if](SimTime at, PacketHandle p) {
            push_handoff(*ring, at, dst_node, dst_if, *p);
            // `p` releases into the source domain's pool on return —
            // on the producer's own thread.
          });
    }
  }
}

DomainRuntime::~DomainRuntime() = default;

bool DomainRuntime::has_ring(std::uint32_t src, std::uint32_t dst) const {
  return ring_table_[static_cast<std::size_t>(src) * domain_count() + dst] !=
         nullptr;
}

std::size_t DomainRuntime::boundary_links(std::uint32_t src,
                                          std::uint32_t dst) const {
  const Ring* r =
      ring_table_[static_cast<std::size_t>(src) * domain_count() + dst];
  return r == nullptr ? 0 : r->links;
}

void DomainRuntime::push_handoff(Ring& r, SimTime at, NodeId dst_node,
                                 mpls::InterfaceId dst_if,
                                 const mpls::Packet& packet) {
  Handoff& h = r.scratch;
  h.at = at;
  h.dst_node = dst_node;
  h.dst_if = dst_if;
  h.trace_id = 0;
  if (mode_ == SyncMode::kDeterministic) {
    // The copy across the boundary changes the address the tracer keys
    // journeys on; carry the id through the ring so the far side can
    // re-bind it.  kFree never does this: the journey table is
    // single-threaded, so tracing forces a single domain there.
    if (obs::HopTracer* t = net_.tracer(); t != nullptr && t->enabled()) {
      h.trace_id = t->detach(&packet);
    }
  }
  h.packet = packet;  // copy assignment: scratch buffers keep capacity
  if (!r.ring.try_push(h)) {
    // Burst larger than the ring.  The overflow vector is only ever
    // touched with the other side quiesced (per-event drain in the
    // deterministic merge; the post-window barrier in free-running
    // mode), so plain push_back is safe.
    r.overflow.push_back(h);
    ++counters_[r.src].c.ring_overflows;
  }
  ++counters_[r.src].c.handoffs_out;
}

void DomainRuntime::deliver_handoff(Ring& r, const Handoff& h) {
  PacketHandle p = pools_[r.dst]->acquire();
  *p = h.packet;  // recycled packets keep their buffer capacity
  if (h.trace_id != 0) {
    if (obs::HopTracer* t = net_.tracer(); t != nullptr) {
      t->attach(p.get(), h.trace_id);
    }
  }
  Node* node = &net_.node(h.dst_node);
  queues_[r.dst]->schedule_at(
      h.at, [node, dst_if = h.dst_if, p = std::move(p)]() mutable {
        node->receive(std::move(p), dst_if);
      });
  ++counters_[r.dst].c.handoffs_in;
}

void DomainRuntime::drain_ring(Ring& r) {
  while (r.ring.try_pop(r.inbox)) {
    deliver_handoff(r, r.inbox);
  }
  if (!r.overflow.empty()) {
    for (const Handoff& h : r.overflow) {
      deliver_handoff(r, h);
    }
    r.overflow.clear();
  }
}

std::uint64_t DomainRuntime::run_until(SimTime until) {
  return mode_ == SyncMode::kFree ? run_free(until) : run_deterministic(until);
}

std::uint64_t DomainRuntime::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

std::uint64_t DomainRuntime::run_deterministic(SimTime until) {
  const std::size_t count = queues_.size();
  std::uint64_t executed = 0;
  const bool prof = profiling_;
  const ProfClock::time_point wall0 = prof_now(prof);
  for (;;) {
    const ProfClock::time_point t0 = prof_now(prof);
    SimTime best = std::numeric_limits<SimTime>::infinity();
    std::size_t which = count;
    for (std::size_t d = 0; d < count; ++d) {
      const SimTime t = queues_[d]->next_time();
      if (t < best) {
        best = t;
        which = d;
      }
    }
    if (which == count || best > until) {
      break;
    }
    // Synchronise every domain clock BEFORE executing: an event on one
    // queue may touch links or nodes of another domain (control plane,
    // fault injection, OAM), and those read their own queue's now().
    // With all clocks at the event's time, behaviour is identical to
    // the single-queue simulator's.
    for (EventQueue* q : queues_) {
      q->advance_to(best);
    }
    PhaseProfile& p = profiles_[which].p;
    const ProfClock::time_point t1 = prof_now(prof);
    std::uint64_t search0 = 0;
    if (prof) {
      // The merge scan + clock advance is this mode's analogue of the
      // barrier wait, attributed to the domain about to execute.
      p.barrier_ns += ns_between(t0, t1);
      search0 = p.search_ns;
      detail::set_search_accumulator(&p.search_ns);
    }
    detail::set_active_domain(&net_, queues_[which], pools_[which],
                              static_cast<std::uint32_t>(which));
    queues_[which]->step();
    detail::clear_active_domain();
    ++counters_[which].c.executed;
    ++executed;
    const ProfClock::time_point t2 = prof_now(prof);
    if (prof) {
      detail::set_search_accumulator(nullptr);
      const std::uint64_t raw = ns_between(t1, t2);
      const std::uint64_t searched = p.search_ns - search0;
      p.dispatch_ns += raw > searched ? raw - searched : 0;
    }
    // Drain after every event so cross-domain arrivals join the global
    // (time, domain) merge immediately.
    for (const auto& r : rings_) {
      drain_ring(*r);
    }
    if (prof) {
      p.handoff_ns += ns_between(t2, ProfClock::now());
    }
  }
  if (prof) {
    profiles_[0].p.wall_ns += ns_between(wall0, ProfClock::now());
  }
  // Leave every clock where the single-queue run would: at `until` for a
  // bounded run, at the last executed event's time when draining.
  if (std::isfinite(until)) {
    for (EventQueue* q : queues_) {
      q->advance_to(until);
    }
  } else {
    SimTime last = 0.0;
    for (EventQueue* q : queues_) {
      last = std::max(last, q->now());
    }
    for (EventQueue* q : queues_) {
      q->advance_to(last);
    }
  }
  return executed;
}

std::uint64_t DomainRuntime::run_free(SimTime until) {
  const std::uint32_t count = domain_count();
  const SimTime inf = std::numeric_limits<SimTime>::infinity();

  std::uint64_t before = 0;
  for (const PaddedCounters& c : counters_) {
    before += c.c.executed;
  }

  struct Plan {
    SimTime end = 0.0;
    bool inclusive = false;
    bool unbounded = false;  // no lookahead bound: each queue runs dry
    bool done = false;
  };
  Plan plan;

  // Plans the next window while everyone is quiesced (it runs inside
  // the barrier's completion step).  A window is [T, T+W) with T the
  // global minimum next-event time: every handoff produced inside it
  // arrives at >= T + W, i.e. in a later window on the destination.
  auto make_plan = [this, &plan, until, inf]() noexcept {
    SimTime t_next = inf;
    for (EventQueue* q : queues_) {
      t_next = std::min(t_next, q->next_time());
    }
    if (t_next == inf || t_next > until) {
      plan.done = true;
      return;
    }
    const SimTime end = std::min(until, t_next + lookahead_);
    plan.end = end;
    plan.unbounded = !std::isfinite(end);
    // The final window is inclusive to match run_until's `<= until`
    // contract; handoffs landing exactly at `until` re-open it.
    plan.inclusive = (end == until);
    plan.done = false;
  };

  std::uint64_t phase = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(count),
                    [&phase, &make_plan]() noexcept {
                      // Phases alternate: even = plan the next window,
                      // odd = the post-window quiesce before draining.
                      if ((phase++ & 1) == 0) {
                        make_plan();
                      }
                    });

  auto worker = [this, &sync, &plan, until](std::uint32_t d) {
    EventQueue& q = *queues_[d];
    Counters& c = counters_[d].c;
    PhaseProfile& p = profiles_[d].p;
    const bool prof = profiling_;
    const ProfClock::time_point w0 = prof_now(prof);
    if (prof) {
      detail::set_search_accumulator(&p.search_ns);
    }
    for (;;) {
      const ProfClock::time_point t0 = prof_now(prof);
      sync.arrive_and_wait();  // completion planned the window
      const ProfClock::time_point t1 = prof_now(prof);
      if (prof) {
        p.barrier_ns += ns_between(t0, t1);
      }
      if (plan.done) {
        break;
      }
      const std::uint64_t search0 = p.search_ns;
      detail::set_active_domain(&net_, &q, pools_[d], d);
      const std::uint64_t n =
          plan.unbounded ? q.run() : q.run_window(plan.end, plan.inclusive);
      detail::clear_active_domain();
      c.executed += n;
      ++c.windows;
      if (n == 0) {
        ++c.idle_windows;
      }
      const ProfClock::time_point t2 = prof_now(prof);
      if (prof) {
        const std::uint64_t raw = ns_between(t1, t2);
        const std::uint64_t searched = p.search_ns - search0;
        p.dispatch_ns += raw > searched ? raw - searched : 0;
      }
      sync.arrive_and_wait();  // everyone out of their window
      const ProfClock::time_point t3 = prof_now(prof);
      if (prof) {
        p.barrier_ns += ns_between(t2, t3);
      }
      // Drain this domain's incoming rings: the consumer side of an
      // SPSC ring must stay on one thread, and dst == d pins it here.
      for (const auto& r : rings_) {
        if (r->dst == d) {
          drain_ring(*r);
        }
      }
      if (prof) {
        p.handoff_ns += ns_between(t3, ProfClock::now());
      }
    }
    if (std::isfinite(until)) {
      q.advance_to(until);
    }
    if (prof) {
      detail::set_search_accumulator(nullptr);
      p.wall_ns += ns_between(w0, ProfClock::now());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(count - 1);
  for (std::uint32_t d = 1; d < count; ++d) {
    threads.emplace_back(worker, d);
  }
  worker(0);  // the caller runs domain 0
  for (std::thread& t : threads) {
    t.join();
  }

  std::uint64_t after = 0;
  for (const PaddedCounters& c : counters_) {
    after += c.c.executed;
  }
  return after - before;
}

std::uint64_t DomainRuntime::delivered_sum() const noexcept {
  std::uint64_t sum = 0;
  for (const PaddedCounters& c : counters_) {
    sum += c.c.delivered;
  }
  return sum;
}

std::uint64_t DomainRuntime::handoffs_in_sum() const noexcept {
  std::uint64_t sum = 0;
  for (const PaddedCounters& c : counters_) {
    sum += c.c.handoffs_in;
  }
  return sum;
}

std::uint64_t DomainRuntime::windows_sum() const noexcept {
  std::uint64_t sum = 0;
  for (const PaddedCounters& c : counters_) {
    sum += c.c.windows;
  }
  return sum;
}

EventQueue::Stats DomainRuntime::queue_stats() const {
  EventQueue::Stats out;
  for (const EventQueue* q : queues_) {
    const EventQueue::Stats& s = q->stats();
    out.scheduled += s.scheduled;
    out.executed += s.executed;
    out.clamped += s.clamped;
    out.events_inline += s.events_inline;
    out.events_heap_fallback += s.events_heap_fallback;
  }
  return out;
}

PacketPool::Stats DomainRuntime::pool_stats() const {
  PacketPool::Stats out;
  for (const PacketPool* p : pools_) {
    const PacketPool::Stats& s = p->stats();
    out.acquired += s.acquired;
    out.recycled += s.recycled;
    out.in_use += s.in_use;
    out.high_water += s.high_water;
    out.capacity += s.capacity;
  }
  return out;
}

}  // namespace empls::net
