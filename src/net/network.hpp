// The network: owns nodes, directed links and the event queue; provides
// the builder API (add_node / connect), topology queries for the control
// plane, traffic injection, and local-delivery dispatch for packets that
// leave the MPLS domain at an egress LER.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/event_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "net/stats.hpp"
#include "obs/drop_reason.hpp"

namespace empls::obs {
class MetricsRegistry;
class HopTracer;
class Timeline;
}  // namespace empls::obs

namespace empls::net {

class DomainRuntime;
enum class SyncMode : std::uint8_t;

class Network {
 public:
  explicit Network(QosConfig default_qos = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Event queue for the calling context.  Unpartitioned this is the
  /// network's own queue; under a partitioned run (see partition()) the
  /// runtime routes each domain's execution to that domain's queue, so
  /// self-rescheduling components keep working untouched.
  [[nodiscard]] EventQueue& events() noexcept;
  [[nodiscard]] const EventQueue& events() const noexcept;
  [[nodiscard]] SimTime now() const noexcept { return events().now(); }

  /// Packet arena for the calling context (routed like events()).
  [[nodiscard]] PacketPool& pool() noexcept;
  [[nodiscard]] const PacketPool& pool() const noexcept;

  /// The queue / pool that owns node `id` — where the *first* event for
  /// work anchored at a node (a traffic source's start, a generator's
  /// first arrival) must be scheduled so it executes in that node's
  /// domain.  Unpartitioned these are the network's own.
  [[nodiscard]] EventQueue& events_for(NodeId id);
  [[nodiscard]] PacketPool& pool_for(NodeId id);

  /// Take ownership of `node`; returns its id.
  NodeId add_node(std::unique_ptr<Node> node);

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }

  /// Downcast helper for topology-building code that knows the type.
  template <typename T>
  [[nodiscard]] T& node_as(NodeId id) {
    return dynamic_cast<T&>(node(id));
  }

  struct PortPair {
    mpls::InterfaceId a_to_b;  // port index on node a
    mpls::InterfaceId b_to_a;  // port index on node b
  };

  /// Create a bidirectional connection (two directed links) between `a`
  /// and `b`.  Returns the port index each side sends on.
  PortPair connect(NodeId a, NodeId b, double bandwidth_bps,
                   SimTime prop_delay_s);
  PortPair connect(NodeId a, NodeId b, double bandwidth_bps,
                   SimTime prop_delay_s, const QosConfig& qos);

  /// The directed link node `id` transmits on through local port `port`.
  [[nodiscard]] Link& link_from(NodeId id, mpls::InterfaceId port);
  [[nodiscard]] const Link& link_from(NodeId id,
                                      mpls::InterfaceId port) const;

  struct Adjacency {
    NodeId neighbor;
    mpls::InterfaceId port;  // local port on the source node
    double bandwidth_bps;
    SimTime prop_delay;
  };
  [[nodiscard]] const std::vector<Adjacency>& adjacency(NodeId id) const;

  /// Failure injection: take one directed link (or both directions of a
  /// connection) down or up.  Per-direction set_link_up does NOT emit
  /// the connection-level fast signal (one dark fibre is not a dead
  /// adjacency); set_connection_up does, on actual state changes.
  void set_link_up(NodeId id, mpls::InterfaceId port, bool up) {
    link_from(id, port).set_up(up);
  }
  void set_connection_up(NodeId a, NodeId b, bool up);

  /// Fast link-state signal: fired synchronously when set_connection_up
  /// actually changes a connection's state — the loss-of-light /
  /// carrier-detect interrupt a line card raises in data-plane time,
  /// long before any hello protocol counts a dead interval.  Local
  /// protection switching (net/protection.hpp) subscribes here.
  using LinkSignalHandler = std::function<void(NodeId a, NodeId b, bool up)>;
  void add_link_signal_handler(LinkSignalHandler handler) {
    link_signals_.push_back(std::move(handler));
  }

  /// Per-packet notification of drops inside links (offered while down,
  /// or output-queue overflow).  Together with the discard handlers this
  /// accounts every lost packet, so fault campaigns can check flow
  /// conservation: sent = delivered + accounted drops.
  using LinkDropHandler =
      std::function<void(const mpls::Packet&, obs::DropReason reason)>;
  void add_link_drop_handler(LinkDropHandler handler);

  /// Hand a packet to a node as locally injected traffic.
  void inject(NodeId id, PacketHandle packet);
  /// Compatibility overload: wraps the bare packet in a heap-owned
  /// handle (tests and one-off injections; not the pooled fast path).
  void inject(NodeId id, mpls::Packet packet) {
    inject(id, PacketHandle(std::move(packet)));
  }

  /// Called by egress routers when a packet leaves the MPLS domain.
  /// Handlers are multicast: add_ appends, set_ replaces them all.
  using DeliveryHandler =
      std::function<void(NodeId egress, const mpls::Packet&)>;
  void set_delivery_handler(DeliveryHandler handler) {
    delivery_.clear();
    delivery_.push_back(std::move(handler));
  }
  void add_delivery_handler(DeliveryHandler handler) {
    delivery_.push_back(std::move(handler));
  }
  void deliver_local(NodeId egress, const mpls::Packet& packet);

  /// Called by routers when a packet is dropped in processing (TTL
  /// expiry, missing binding, malformed wire form, no next hop).  OAM
  /// traceroute and diagnostics subscribe here.
  using DiscardHandler = std::function<void(
      NodeId where, const mpls::Packet&, obs::DropReason reason)>;
  void add_discard_handler(DiscardHandler handler) {
    discard_.push_back(std::move(handler));
  }
  void notify_discard(NodeId where, const mpls::Packet& packet,
                      obs::DropReason reason);

  [[nodiscard]] std::uint64_t delivered_count() const noexcept;

  /// Wire the telemetry layer through the topology: every node gets
  /// on_telemetry(), every directed link gets its trace lane and a
  /// transit-time histogram.  Call after the topology is built (links
  /// connected after the fact are not wired).  Either argument may be
  /// null; passing both null unwires links but not nodes.
  void set_telemetry(obs::MetricsRegistry* metrics, obs::HopTracer* tracer);
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] obs::HopTracer* tracer() const noexcept { return tracer_; }

  /// Per-reason drop totals: router discards seen via notify_discard
  /// plus link-level drops (down-link and queue-overflow) read from the
  /// link statistics.
  [[nodiscard]] obs::DropCounts drop_totals() const;

  /// One snapshot pass: simulator counters, every node's metrics
  /// (Node::export_metrics), per-link counters/gauges, and per-reason
  /// drop totals, all into `metrics`.
  void export_metrics(obs::MetricsRegistry& metrics) const;

  /// Timeline whose counter tracks merge into write_chrome_trace()'s
  /// output (as the pid-3 "telemetry" process).  Not owned; the caller
  /// keeps it alive until after the trace is written.
  void set_timeline(const obs::Timeline* timeline) noexcept {
    timeline_ = timeline;
  }
  [[nodiscard]] const obs::Timeline* timeline() const noexcept {
    return timeline_;
  }

  /// Chrome-trace JSON of the tracer's ring with node/link names
  /// resolved from the topology, plus the timeline's counter tracks
  /// when one is wired.  With only a timeline wired, writes a
  /// counters-only trace; with neither, a no-op.
  void write_chrome_trace(std::ostream& out) const;

  /// Partition the topology into `domains` event domains (see
  /// net/domain.hpp) with block node assignment: node ids are split
  /// into `domains` equal contiguous ranges.  The second overload takes
  /// an explicit node→domain map.  Call after the topology is built and
  /// before scheduling any traffic — events already queued stay on
  /// domain 0.  Returns false and leaves the network unpartitioned when
  /// the configuration cannot run partitioned: fewer than 2 domains
  /// after clamping to the node count, an existing partition, or
  /// free-running mode with a zero-delay boundary link (zero lookahead
  /// cannot make progress).
  bool partition(std::size_t domains, SyncMode mode);
  bool partition(std::vector<std::uint32_t> node_domain,
                 std::uint32_t domain_count, SyncMode mode);
  [[nodiscard]] DomainRuntime* domain_runtime() noexcept {
    return domains_.get();
  }
  [[nodiscard]] const DomainRuntime* domain_runtime() const noexcept {
    return domains_.get();
  }

  /// Guard for shared accounting (flow stats, ledgers, delivery
  /// handlers) that worker threads touch during free-running
  /// partitioned execution.  Everywhere else it returns an empty
  /// (unlocked) guard, so single-threaded runs stay lock-free.
  [[nodiscard]] std::unique_lock<std::mutex> books_lock();

  /// Run the event loop (the partitioned runtime when present,
  /// otherwise the network's own queue).
  std::uint64_t run_until(SimTime until);
  std::uint64_t run();

  /// Snapshot of the simulator's own fast-path counters (event queue +
  /// packet pool, summed across domains when partitioned); the scenario
  /// report includes it.
  [[nodiscard]] SimStats sim_stats() const noexcept;

 private:
  [[nodiscard]] bool books_locked() const noexcept;

  // Declared first so it is destroyed last: pending events, queues and
  // nodes all hold PacketHandles that release into this pool.
  PacketPool pool_;
  QosConfig default_qos_;
  // Between pool_ and events_: destroyed after events_ (whose pending
  // events may hold handles from per-domain pools) and before pool_
  // (the per-domain queues hold handles from the network pool).
  std::unique_ptr<DomainRuntime> domains_;
  EventQueue events_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<DeliveryHandler> delivery_;
  std::vector<DiscardHandler> discard_;
  std::vector<LinkSignalHandler> link_signals_;
  std::vector<LinkDropHandler> link_drops_;
  std::uint64_t delivered_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::HopTracer* tracer_ = nullptr;
  const obs::Timeline* timeline_ = nullptr;
  obs::DropCounts router_drops_{};       // notify_discard, by reason
  std::vector<std::string> link_names_;  // "src->dst", by link index

  // Serialises the shared books (delivery handlers, flow stats fed by
  // them, drop accounting) under free-running partitioned execution.
  std::mutex books_mutex_;
};

}  // namespace empls::net
