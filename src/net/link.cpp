#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "net/node.hpp"
#include "obs/drop_reason.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace empls::net {

namespace {

// Drop span + journey termination for packets this link discards.
void trace_drop(obs::HopTracer* tracer, std::uint32_t link_id,
                const mpls::Packet* p, SimTime now, obs::DropReason reason) {
  if (tracer == nullptr || !tracer->enabled()) {
    return;
  }
  tracer->record(tracer->id_of(p), obs::SpanKind::kDrop, link_id, now, 0.0,
                 static_cast<std::uint16_t>(reason), 0, obs::kSpanOnLink);
  tracer->end(p);
}

}  // namespace

Link::Link(EventQueue& events, Node* dst, mpls::InterfaceId dst_in_if,
           double bandwidth_bps, SimTime prop_delay_s, QosConfig qos)
    : events_(&events),
      dst_(dst),
      dst_in_if_(dst_in_if),
      bandwidth_(bandwidth_bps),
      prop_delay_(prop_delay_s),
      queue_(std::move(qos)) {
  assert(bandwidth_ > 0.0);
  assert(prop_delay_ >= 0.0);
}

void Link::transmit(PacketHandle packet) {
  if (!up_) {
    ++stats_.failed_drops;
    if (drop_hook_) {
      drop_hook_(*packet, obs::DropReason::kLinkDown);
    }
    trace_drop(tracer_, link_id_, packet.get(), events_->now(),
               obs::DropReason::kLinkDown);
    return;
  }
  // An idle transmitter with empty queues cuts the packet straight
  // through — same drop policy and queue accounting, but no ring traffic
  // and no tx-complete event; the hop costs exactly one scheduled event
  // (the arrival).
  if (!drain_pending_ && queue_.empty() && events_->now() >= busy_until_) {
    if (!queue_.admit_cut_through(*packet)) {
      if (drop_hook_) {
        drop_hook_(*packet, obs::DropReason::kQueueOverflow);
      }
      trace_drop(tracer_, link_id_, packet.get(), events_->now(),
                 obs::DropReason::kQueueOverflow);
      return;
    }
    begin_tx(std::move(packet));
    return;
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->mark(packet.get(), events_->now());
  }
  // enqueue leaves the handle intact on refusal, so drop attribution
  // reads the original packet — no defensive copy.
  if (!queue_.enqueue(std::move(packet))) {
    if (drop_hook_) {
      drop_hook_(*packet, obs::DropReason::kQueueOverflow);
    }
    trace_drop(tracer_, link_id_, packet.get(), events_->now(),
               obs::DropReason::kQueueOverflow);
    return;
  }
  if (!drain_pending_) {
    drain_pending_ = true;
    const SimTime at = std::max(events_->now(), busy_until_);
    events_->schedule_at(at, [this] { drain(); });
  }
}

void Link::begin_tx(PacketHandle packet) {
  const double bits = static_cast<double>(packet->wire_size()) * 8.0;
  const SimTime tx_time = bits / bandwidth_;
  stats_.tx_packets += 1;
  stats_.tx_bytes += packet->wire_size();
  stats_.busy_time += tx_time;
  busy_until_ = events_->now() + tx_time;
  if (transit_hist_ != nullptr) {
    transit_hist_->record(
        static_cast<std::uint64_t>((tx_time + prop_delay_) * 1e9));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    const std::uint64_t tid = tracer_->id_of(packet.get());
    const SimTime queued_at = tracer_->take_mark(packet.get());
    if (queued_at >= 0.0 && events_->now() > queued_at) {
      tracer_->record(tid, obs::SpanKind::kLinkQueue, link_id_, queued_at,
                      events_->now() - queued_at, 0, 0, obs::kSpanOnLink);
    }
    tracer_->record(tid, obs::SpanKind::kLinkTransit, link_id_,
                    events_->now(), tx_time + prop_delay_, 0,
                    static_cast<std::uint32_t>(packet->wire_size()),
                    obs::kSpanOnLink);
  }
  // The wire is cut at the transmitter: once serialisation starts the
  // packet arrives even if the link is taken down meanwhile, so the
  // arrival can be scheduled up front.
  const SimTime arrive_at = busy_until_ + prop_delay_;
  if (handoff_hook_) {
    // Domain-boundary link: the destination's event queue belongs to
    // another domain, so the runtime carries the arrival across.
    handoff_hook_(arrive_at, std::move(packet));
    return;
  }
  events_->schedule_at(arrive_at, [this, p = std::move(packet)]() mutable {
    dst_->receive(std::move(p), dst_in_if_);
  });
}

void Link::drain() {
  PacketHandle next = queue_.dequeue();
  if (!next) {
    drain_pending_ = false;
    return;
  }
  begin_tx(std::move(next));
  if (queue_.empty()) {
    drain_pending_ = false;
    return;
  }
  events_->schedule_at(busy_until_, [this] { drain(); });
}

double Link::utilization() const noexcept {
  const SimTime now = events_->now();
  return now > 0.0 ? stats_.busy_time / now : 0.0;
}

}  // namespace empls::net
