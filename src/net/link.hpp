// Directed link: an output port's CoS queue set, a transmitter that
// serialises packets at the link rate, and a propagation pipe to the
// destination node's input interface.
//
// A bidirectional connection is two Links (one per direction), each with
// its own queues — as real router line cards have.
#pragma once

#include <cstdint>
#include <functional>

#include "mpls/packet.hpp"
#include "mpls/tables.hpp"
#include "net/event_queue.hpp"
#include "net/packet_pool.hpp"
#include "net/qos.hpp"
#include "obs/drop_reason.hpp"

namespace empls::obs {
class Histogram;
class HopTracer;
}  // namespace empls::obs

namespace empls::net {

class Node;

struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t failed_drops = 0;  // offered while the link was down
  SimTime busy_time = 0.0;         // total transmission time
};

class Link {
 public:
  Link(EventQueue& events, Node* dst, mpls::InterfaceId dst_in_if,
       double bandwidth_bps, SimTime prop_delay_s, QosConfig qos);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue for transmission; starts the transmitter when idle.
  /// Queue-full drops are recorded in the queue stats.
  void transmit(PacketHandle packet);

  [[nodiscard]] double bandwidth_bps() const noexcept { return bandwidth_; }
  [[nodiscard]] SimTime prop_delay() const noexcept { return prop_delay_; }
  [[nodiscard]] const CosQueueSet& queue() const noexcept { return queue_; }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }

  /// Fraction of elapsed time the transmitter was busy.
  [[nodiscard]] double utilization() const noexcept;

  /// Failure injection: a downed link drops everything offered to it
  /// (packets already in flight complete — the wire is cut at the
  /// transmitter).  The control plane's path computation skips down
  /// links.
  void set_up(bool up) noexcept { up_ = up; }
  [[nodiscard]] bool is_up() const noexcept { return up_; }

  /// Observation hook for packets this link drops (offered while down,
  /// or refused by a full queue).  Conservation audits subscribe via
  /// Network::add_link_drop_handler; unset, drops cost nothing extra.
  using DropHook = std::function<void(const mpls::Packet&, obs::DropReason)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Partitioned execution support (net/domain.hpp).  A link belongs to
  /// its *source* node's domain: rebind_events points the transmitter at
  /// that domain's queue.  When the destination lives in another domain
  /// the handoff hook replaces the arrival event — the transmitter calls
  /// it with the computed arrival time and the packet, and the domain
  /// runtime carries both across the boundary.
  void rebind_events(EventQueue& events) noexcept { events_ = &events; }
  using HandoffHook = std::function<void(SimTime arrive_at, PacketHandle)>;
  void set_handoff_hook(HandoffHook hook) { handoff_hook_ = std::move(hook); }
  [[nodiscard]] bool has_handoff_hook() const noexcept {
    return static_cast<bool>(handoff_hook_);
  }
  [[nodiscard]] Node* destination() const noexcept { return dst_; }
  [[nodiscard]] mpls::InterfaceId dst_interface() const noexcept {
    return dst_in_if_;
  }

  /// Telemetry wiring (Network::set_telemetry).  `link_id` is this
  /// link's index in the network's link table — the trace lane it
  /// renders on; `transit_hist` records per-packet transit time
  /// (serialisation + propagation) in nanoseconds.  Either may be null.
  void set_telemetry(obs::HopTracer* tracer, std::uint32_t link_id,
                     obs::Histogram* transit_hist) noexcept {
    tracer_ = tracer;
    link_id_ = link_id;
    transit_hist_ = transit_hist;
  }

 private:
  /// Serialisation is tracked as a time (busy_until_), so an
  /// uncontended hop costs a single event — the arrival — and queued
  /// backlogs are drained by one self-rescheduling drain event.
  void begin_tx(PacketHandle packet);
  void drain();

  EventQueue* events_;
  Node* dst_;
  mpls::InterfaceId dst_in_if_;
  double bandwidth_;
  SimTime prop_delay_;
  CosQueueSet queue_;
  bool drain_pending_ = false;
  bool up_ = true;
  SimTime busy_until_ = 0.0;  // transmitter serialising until
  LinkStats stats_;
  DropHook drop_hook_;
  HandoffHook handoff_hook_;  // set only on domain-boundary links
  obs::HopTracer* tracer_ = nullptr;
  obs::Histogram* transit_hist_ = nullptr;
  std::uint32_t link_id_ = 0;
};

}  // namespace empls::net
