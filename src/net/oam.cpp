#include "net/oam.hpp"

#include <memory>

namespace empls::net {

void Oam::settle(std::uint32_t flow, bool delivered, NodeId where,
                 std::string_view reason) {
  // Index-based and moved-out: the callback may inject further probes
  // (traceroute), which appends to probes_ — no live iterators allowed.
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i].flow_id == flow && !probes_[i].settled) {
      probes_[i].settled = true;
      auto observe = std::move(probes_[i].observe);
      observe(delivered, where, reason);
      return;
    }
  }
}

Oam::Oam(Network& net) : net_(&net) {
  // One pair of handlers serves every probe this agent ever sends.
  net_->add_delivery_handler([this](NodeId egress, const mpls::Packet& p) {
    if (p.flow_id >= kOamFlowBase) {
      settle(p.flow_id, true, egress, "");
    }
  });
  net_->add_discard_handler(
      [this](NodeId where, const mpls::Packet& p, obs::DropReason reason) {
        if (p.flow_id >= kOamFlowBase) {
          settle(p.flow_id, false, where, obs::to_string(reason));
        }
      });
}

std::uint32_t Oam::inject_probe(
    NodeId ingress, mpls::Ipv4Address dst, std::uint8_t cos,
    std::uint8_t ttl, SimTime timeout,
    std::function<void(bool, NodeId, std::string_view)> observe) {
  const std::uint32_t flow = next_flow_++;
  probes_.push_back(Probe{flow, net_->now(), false, std::move(observe)});

  PacketHandle probe = net_->pool().acquire();
  probe->dst = dst;
  probe->cos = cos;
  probe->ip_ttl = ttl;
  probe->flow_id = flow;
  probe->created_at = net_->now();
  probe->payload.assign(32, 0x4F);  // 'O'
  net_->inject(ingress, std::move(probe));

  // Timeout: a probe that never settles reports as lost.
  net_->events().schedule_in(timeout, [this, flow] {
    settle(flow, false, static_cast<NodeId>(-1), "timeout");
  });
  return flow;
}

void Oam::lsp_ping(NodeId ingress, mpls::Ipv4Address dst, PingCallback done,
                   SimTime timeout, std::uint8_t cos) {
  const SimTime injected_at = net_->now();
  inject_probe(ingress, dst, cos, /*ttl=*/64, timeout,
               [this, injected_at, done = std::move(done)](
                   bool delivered, NodeId where, std::string_view reason) {
                 PingResult r;
                 r.reachable = delivered;
                 r.latency = net_->now() - injected_at;
                 if (delivered) {
                   r.egress = where;
                 } else if (where != static_cast<NodeId>(-1)) {
                   r.discarded_at = where;
                   r.discard_reason = std::string(reason);
                 } else {
                   r.discard_reason = std::string(reason);  // timeout
                 }
                 done(r);
               });
}

void Oam::traceroute_step(std::shared_ptr<TracerouteResult> result,
                          NodeId ingress, mpls::Ipv4Address dst,
                          unsigned ttl, unsigned max_ttl, SimTime timeout,
                          std::uint8_t cos, TracerouteCallback done) {
  const SimTime injected_at = net_->now();
  inject_probe(
      ingress, dst, cos, static_cast<std::uint8_t>(ttl), timeout,
      [this, result, ingress, dst, ttl, max_ttl, timeout, cos,
       injected_at, done](bool delivered, NodeId where,
                          std::string_view reason) {
        const SimTime latency = net_->now() - injected_at;
        if (delivered) {
          result->hops.push_back(TracerouteHop{ttl, where, true, latency});
          result->complete = true;
          done(*result);
          return;
        }
        if (where != static_cast<NodeId>(-1) && reason == "ttl-expired") {
          result->hops.push_back(TracerouteHop{ttl, where, false, latency});
          if (ttl < max_ttl) {
            traceroute_step(result, ingress, dst, ttl + 1, max_ttl, timeout,
                            cos, done);
            return;
          }
        }
        // Non-TTL discard, timeout, or max TTL reached: stop here.
        if (where != static_cast<NodeId>(-1) && reason != "ttl-expired") {
          result->hops.push_back(TracerouteHop{ttl, where, false, latency});
        }
        done(*result);
      });
}

void Oam::lsp_traceroute(NodeId ingress, mpls::Ipv4Address dst,
                         TracerouteCallback done, unsigned max_ttl,
                         SimTime per_probe_timeout, std::uint8_t cos) {
  auto result = std::make_shared<TracerouteResult>();
  traceroute_step(std::move(result), ingress, dst, /*ttl=*/1, max_ttl,
                  per_probe_timeout, cos, std::move(done));
}

}  // namespace empls::net
