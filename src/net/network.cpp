#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "net/domain.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace empls::net {

namespace detail {
namespace {

// The execution context of the current thread during a partitioned run:
// which network's domain it is driving, and that domain's queue/pool.
// Unset (net == nullptr) everywhere else, including the main thread
// between runs, so the accessors fall back to the network's own.
struct ActiveDomain {
  const Network* net = nullptr;
  EventQueue* events = nullptr;
  PacketPool* pool = nullptr;
  std::uint32_t index = 0;
};
thread_local ActiveDomain g_active_domain;

}  // namespace

void set_active_domain(const Network* net, EventQueue* events,
                       PacketPool* pool, std::uint32_t index) noexcept {
  g_active_domain = ActiveDomain{net, events, pool, index};
}

void clear_active_domain() noexcept { g_active_domain = ActiveDomain{}; }

std::uint32_t active_domain_index(const Network* net) noexcept {
  return g_active_domain.net == net ? g_active_domain.index : 0;
}

}  // namespace detail

Network::Network(QosConfig default_qos)
    : default_qos_(std::move(default_qos)) {}

Network::~Network() = default;

EventQueue& Network::events() noexcept {
  if (detail::g_active_domain.net == this) {
    return *detail::g_active_domain.events;
  }
  return events_;
}

const EventQueue& Network::events() const noexcept {
  if (detail::g_active_domain.net == this) {
    return *detail::g_active_domain.events;
  }
  return events_;
}

PacketPool& Network::pool() noexcept {
  if (detail::g_active_domain.net == this) {
    return *detail::g_active_domain.pool;
  }
  return pool_;
}

const PacketPool& Network::pool() const noexcept {
  if (detail::g_active_domain.net == this) {
    return *detail::g_active_domain.pool;
  }
  return pool_;
}

EventQueue& Network::events_for(NodeId id) {
  return domains_ != nullptr ? domains_->events(domains_->domain_of(id))
                             : events_;
}

PacketPool& Network::pool_for(NodeId id) {
  return domains_ != nullptr ? domains_->pool(domains_->domain_of(id))
                             : pool_;
}

bool Network::partition(std::size_t domains, SyncMode mode) {
  const std::size_t n = nodes_.size();
  const std::size_t count = std::min(domains, n);
  if (count < 2) {
    return false;
  }
  std::vector<std::uint32_t> map(n);
  for (std::size_t i = 0; i < n; ++i) {
    map[i] = static_cast<std::uint32_t>(i * count / n);
  }
  return partition(std::move(map), static_cast<std::uint32_t>(count), mode);
}

bool Network::partition(std::vector<std::uint32_t> node_domain,
                        std::uint32_t domain_count, SyncMode mode) {
  if (domains_ != nullptr || domain_count < 2 ||
      node_domain.size() != nodes_.size()) {
    return false;
  }
  for (const std::uint32_t d : node_domain) {
    if (d >= domain_count) {
      return false;
    }
  }
  // Free-running progress needs strictly positive lookahead on every
  // boundary link; check before wiring so a refusal leaves no trace.
  if (mode == SyncMode::kFree) {
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      for (const Adjacency& adj : adjacency_[id]) {
        if (node_domain[id] != node_domain[adj.neighbor] &&
            adj.prop_delay <= 0.0) {
          return false;
        }
      }
    }
  }
  domains_ = std::make_unique<DomainRuntime>(*this, std::move(node_domain),
                                             domain_count, mode);
  return true;
}

bool Network::books_locked() const noexcept {
  return domains_ != nullptr && domains_->mode() == SyncMode::kFree;
}

std::unique_lock<std::mutex> Network::books_lock() {
  if (books_locked()) {
    return std::unique_lock<std::mutex>(books_mutex_);
  }
  return {};
}

std::uint64_t Network::run_until(SimTime until) {
  return domains_ != nullptr ? domains_->run_until(until)
                             : events_.run_until(until);
}

std::uint64_t Network::run() {
  return domains_ != nullptr ? domains_->run() : events_.run();
}

std::uint64_t Network::delivered_count() const noexcept {
  return delivered_ + (domains_ != nullptr ? domains_->delivered_sum() : 0);
}

SimStats Network::sim_stats() const noexcept {
  EventQueue::Stats ev = events_.stats();
  PacketPool::Stats pool = pool_.stats();
  if (domains_ != nullptr) {
    ev = domains_->queue_stats();
    pool = domains_->pool_stats();
  }
  SimStats s;
  s.events_executed = ev.executed;
  s.events_inline = ev.events_inline;
  s.events_heap_fallback = ev.events_heap_fallback;
  s.clamped_schedules = ev.clamped;
  s.packets_acquired = pool.acquired;
  s.packets_recycled = pool.recycled;
  s.pool_high_water = pool.high_water;
  return s;
}

void Node::send(PacketHandle packet, mpls::InterfaceId out_if) {
  assert(out_if < ports_.size() && "send on unknown port");
  ports_[out_if]->transmit(std::move(packet));
}

NodeId Network::add_node(std::unique_ptr<Node> node) {
  assert(node != nullptr);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->net_ = this;
  node->id_ = id;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return id;
}

Node& Network::node(NodeId id) {
  assert(id < nodes_.size());
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  assert(id < nodes_.size());
  return *nodes_[id];
}

Network::PortPair Network::connect(NodeId a, NodeId b, double bandwidth_bps,
                                   SimTime prop_delay_s) {
  return connect(a, b, bandwidth_bps, prop_delay_s, default_qos_);
}

Network::PortPair Network::connect(NodeId a, NodeId b, double bandwidth_bps,
                                   SimTime prop_delay_s,
                                   const QosConfig& qos) {
  assert(a != b && "self-connections are not meaningful");
  Node& na = node(a);
  Node& nb = node(b);

  // Each side receives on the same-numbered interface it sends on.
  const auto a_port = static_cast<mpls::InterfaceId>(na.ports_.size());
  const auto b_port = static_cast<mpls::InterfaceId>(nb.ports_.size());

  links_.push_back(std::make_unique<Link>(events_, &nb, b_port,
                                          bandwidth_bps, prop_delay_s, qos));
  na.ports_.push_back(links_.back().get());
  links_.push_back(std::make_unique<Link>(events_, &na, a_port,
                                          bandwidth_bps, prop_delay_s, qos));
  nb.ports_.push_back(links_.back().get());
  if (!link_drops_.empty()) {
    // Drop audits already subscribed: new links need the hook too.
    for (auto it = links_.end() - 2; it != links_.end(); ++it) {
      (*it)->set_drop_hook([this](const mpls::Packet& p,
                                  obs::DropReason r) {
        const auto lock = books_lock();
        for (const auto& h : link_drops_) {
          h(p, r);
        }
      });
    }
  }

  adjacency_[a].push_back(Adjacency{b, a_port, bandwidth_bps, prop_delay_s});
  adjacency_[b].push_back(Adjacency{a, b_port, bandwidth_bps, prop_delay_s});
  return PortPair{a_port, b_port};
}

Link& Network::link_from(NodeId id, mpls::InterfaceId port) {
  Node& n = node(id);
  assert(port < n.ports_.size());
  return *n.ports_[port];
}

const Link& Network::link_from(NodeId id, mpls::InterfaceId port) const {
  const Node& n = node(id);
  assert(port < n.ports_.size());
  return *n.ports_[port];
}

const std::vector<Network::Adjacency>& Network::adjacency(NodeId id) const {
  assert(id < adjacency_.size());
  return adjacency_[id];
}

void Network::set_connection_up(NodeId a, NodeId b, bool up) {
  bool changed = false;
  for (const auto& adj : adjacency(a)) {
    if (adj.neighbor == b) {
      changed = changed || link_from(a, adj.port).is_up() != up;
      link_from(a, adj.port).set_up(up);
    }
  }
  for (const auto& adj : adjacency(b)) {
    if (adj.neighbor == a) {
      changed = changed || link_from(b, adj.port).is_up() != up;
      link_from(b, adj.port).set_up(up);
    }
  }
  // The fast signal fires only on real transitions so re-cutting a dead
  // connection (overlapping fault campaigns do) stays a no-op.
  if (changed) {
    for (const auto& handler : link_signals_) {
      handler(a, b, up);
    }
  }
}

void Network::add_link_drop_handler(LinkDropHandler handler) {
  link_drops_.push_back(std::move(handler));
  // One forwarding hook per link fans out to every registered handler;
  // installing it lazily keeps the no-audit hot path copy-free.
  for (const auto& link : links_) {
    link->set_drop_hook([this](const mpls::Packet& p, obs::DropReason r) {
      const auto lock = books_lock();
      for (const auto& h : link_drops_) {
        h(p, r);
      }
    });
  }
}

void Network::inject(NodeId id, PacketHandle packet) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->begin(packet.get(), packet->flow_id, packet->id, id, now());
  }
  node(id).receive(std::move(packet), kInjectInterface);
}

void Network::deliver_local(NodeId egress, const mpls::Packet& packet) {
  if (books_locked()) {
    // Free-running partitioned run: the per-domain counter keeps the
    // hot no-handler path off the mutex; handlers share the books.
    // (The tracer is pointer-keyed and incompatible with partitioned
    // runs — the scenario runner forces a single domain when tracing.)
    domains_->count_delivery(detail::active_domain_index(this));
    if (!delivery_.empty()) {
      const std::lock_guard<std::mutex> lock(books_mutex_);
      for (const auto& handler : delivery_) {
        handler(egress, packet);
      }
    }
    return;
  }
  ++delivered_;
  for (const auto& handler : delivery_) {
    handler(egress, packet);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->record(tracer_->id_of(&packet), obs::SpanKind::kDeliver, egress,
                    now(), 0.0);
    tracer_->end(&packet);
  }
}

void Network::notify_discard(NodeId where, const mpls::Packet& packet,
                             obs::DropReason reason) {
  if (books_locked()) {
    const std::lock_guard<std::mutex> lock(books_mutex_);
    for (const auto& handler : discard_) {
      handler(where, packet, reason);
    }
    ++router_drops_[static_cast<std::size_t>(reason)];
    return;
  }
  for (const auto& handler : discard_) {
    handler(where, packet, reason);
  }
  ++router_drops_[static_cast<std::size_t>(reason)];
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->record(tracer_->id_of(&packet), obs::SpanKind::kDrop, where,
                    now(), 0.0, static_cast<std::uint16_t>(reason));
    tracer_->end(&packet);
  }
}

void Network::set_telemetry(obs::MetricsRegistry* metrics,
                            obs::HopTracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  for (auto& n : nodes_) {
    n->on_telemetry(metrics, tracer);
  }
  // Resolve "src->dst" names for the directed links from the adjacency
  // lists; the index into links_ is the trace lane links render on.
  link_names_.assign(links_.size(), {});
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    for (const Adjacency& adj : adjacency_[id]) {
      const Link* l = nodes_[id]->ports_[adj.port];
      for (std::size_t i = 0; i < links_.size(); ++i) {
        if (links_[i].get() == l) {
          link_names_[i] =
              nodes_[id]->name() + "->" + nodes_[adj.neighbor]->name();
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    obs::Histogram* h = nullptr;
    if (metrics != nullptr) {
      h = &metrics->histogram(
          "empls_link_transit_ns", "link=\"" + link_names_[i] + "\"",
          "per-packet serialisation + propagation time on the link");
    }
    links_[i]->set_telemetry(tracer, static_cast<std::uint32_t>(i), h);
  }
}

obs::DropCounts Network::drop_totals() const {
  obs::DropCounts out = router_drops_;
  for (const auto& link : links_) {
    out[static_cast<std::size_t>(obs::DropReason::kLinkDown)] +=
        link->stats().failed_drops;
    out[static_cast<std::size_t>(obs::DropReason::kQueueOverflow)] +=
        link->queue().total_stats().dropped;
  }
  return out;
}

void Network::export_metrics(obs::MetricsRegistry& metrics) const {
  const SimStats s = sim_stats();
  metrics
      .counter("empls_sim_events_executed_total", "",
               "events run by the scheduler")
      .set(s.events_executed);
  metrics.counter("empls_sim_events_inline_total").set(s.events_inline);
  metrics.counter("empls_sim_events_heap_total").set(s.events_heap_fallback);
  metrics.counter("empls_sim_clamped_schedules_total")
      .set(s.clamped_schedules);
  metrics.counter("empls_sim_packets_acquired_total")
      .set(s.packets_acquired);
  metrics.counter("empls_sim_packets_recycled_total")
      .set(s.packets_recycled);
  metrics.gauge("empls_sim_pool_high_water")
      .set(static_cast<double>(s.pool_high_water));
  metrics
      .gauge("empls_sim_pool_in_use", "",
             "pooled packets currently live (summed across domains)")
      .set(static_cast<double>(domains_ != nullptr
                                   ? domains_->pool_stats().in_use
                                   : pool_.stats().in_use));
  metrics
      .counter("empls_delivered_total", "",
               "packets delivered out of the MPLS domain")
      .set(delivered_count());

  if (domains_ != nullptr) {
    metrics
        .gauge("empls_domain_count", "",
               "event domains in the partitioned runtime")
        .set(static_cast<double>(domains_->domain_count()));
    for (std::uint32_t d = 0; d < domains_->domain_count(); ++d) {
      const DomainRuntime::Counters& c = domains_->counters(d);
      const std::string label = "domain=\"" + std::to_string(d) + "\"";
      metrics
          .counter("empls_domain_events_total", label,
                   "events executed by the domain")
          .set(c.executed);
      metrics
          .counter("empls_domain_windows_total", label,
                   "lookahead windows entered (free-running mode)")
          .set(c.windows);
      metrics
          .counter("empls_domain_idle_windows_total", label,
                   "windows that executed zero events")
          .set(c.idle_windows);
      metrics.counter("empls_domain_handoffs_out_total", label)
          .set(c.handoffs_out);
      metrics.counter("empls_domain_handoffs_in_total", label)
          .set(c.handoffs_in);
      metrics.counter("empls_domain_ring_overflows_total", label)
          .set(c.ring_overflows);
      if (domains_->profiling()) {
        const DomainRuntime::PhaseProfile& p = domains_->profile(d);
        metrics
            .counter("empls_domain_profile_dispatch_ns_total", label,
                     "host ns executing events, engine search excluded")
            .set(p.dispatch_ns);
        metrics
            .counter("empls_domain_profile_search_ns_total", label,
                     "host ns in label-engine update/search calls")
            .set(p.search_ns);
        metrics
            .counter("empls_domain_profile_handoff_ns_total", label,
                     "host ns draining boundary handoff rings")
            .set(p.handoff_ns);
        metrics
            .counter("empls_domain_profile_barrier_ns_total", label,
                     "host ns in barrier waits / the merge scan")
            .set(p.barrier_ns);
        metrics
            .counter("empls_domain_profile_wall_ns_total", label,
                     "host ns inside run() (merge thread on domain 0)")
            .set(p.wall_ns);
        const std::uint64_t busy = p.dispatch_ns + p.search_ns;
        metrics
            .gauge("empls_domain_window_utilization", label,
                   "fraction of the domain's wall clock spent "
                   "dispatching or searching")
            .set(p.wall_ns > 0
                     ? static_cast<double>(busy) /
                           static_cast<double>(p.wall_ns)
                     : 0.0);
      }
    }
  }

  for (const auto& n : nodes_) {
    n->export_metrics(metrics);
  }

  for (std::size_t i = 0; i < links_.size(); ++i) {
    const std::string name = i < link_names_.size() && !link_names_[i].empty()
                                 ? link_names_[i]
                                 : std::to_string(i);
    const std::string label = "link=\"" + name + "\"";
    const Link& l = *links_[i];
    metrics
        .counter("empls_link_tx_packets_total", label,
                 "packets serialised onto the wire")
        .set(l.stats().tx_packets);
    metrics.counter("empls_link_tx_bytes_total", label)
        .set(l.stats().tx_bytes);
    metrics
        .gauge("empls_link_utilization", label,
               "fraction of sim time the transmitter was busy")
        .set(l.utilization());
    metrics
        .gauge("empls_link_queue_depth", label,
               "packets waiting in the link's CoS queues")
        .set(static_cast<double>(l.queue().size()));
  }

  const obs::DropCounts drops = drop_totals();
  for (std::size_t i = 0; i < obs::kDropReasonCount; ++i) {
    const auto reason = to_string(static_cast<obs::DropReason>(i));
    metrics
        .counter("empls_drops_total",
                 "reason=\"" + std::string(reason) + "\"",
                 "packets discarded, by reason")
        .set(drops[i]);
  }
}

void Network::write_chrome_trace(std::ostream& out) const {
  if (tracer_ == nullptr && timeline_ == nullptr) {
    return;
  }
  obs::HopTracer::ExtraEventsWriter counters;
  if (timeline_ != nullptr) {
    counters = [this](std::ostream& o, bool& first) {
      timeline_->write_chrome_counters(o, first);
    };
  }
  if (tracer_ == nullptr) {
    // Counter tracks only: same envelope the tracer writes, so the
    // structural checks and Perfetto load both files identically.
    out << "{\"traceEvents\":[\n";
    bool first = true;
    counters(out, first);
    out << "\n],\"displayTimeUnit\":\"ns\"}\n";
    return;
  }
  std::vector<std::string> node_names;
  node_names.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    node_names.push_back(n->name());
  }
  tracer_->write_chrome_trace(out, node_names, link_names_, counters);
}

}  // namespace empls::net
