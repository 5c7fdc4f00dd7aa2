#include "net/packet_pool.hpp"

#include <algorithm>

namespace empls::net {

PacketHandle PacketPool::acquire() {
  ++stats_.acquired;
  mpls::Packet* p = nullptr;
  if (!free_.empty()) {
    p = free_.back();
    free_.pop_back();
    ++stats_.recycled;
  } else {
    slabs_.push_back(std::make_unique<mpls::Packet[]>(slab_packets_));
    stats_.capacity += slab_packets_;
    mpls::Packet* slab = slabs_.back().get();
    free_.reserve(free_.size() + slab_packets_);
    for (std::size_t i = slab_packets_; i > 1; --i) {
      free_.push_back(&slab[i - 1]);
    }
    p = &slab[0];
  }
  ++stats_.in_use;
  stats_.high_water = std::max(stats_.high_water, stats_.in_use);
  return PacketHandle(p, this);
}

void PacketPool::release(mpls::Packet* p) noexcept {
  // Reset to default field values but keep the payload's and the label
  // stack's buffer capacity — that reuse is the whole point.
  p->l2 = mpls::L2Type::kEthernet;
  p->src = {};
  p->dst = {};
  p->cos = 0;
  p->ip_ttl = 64;
  p->stack.clear();
  p->payload.clear();
  p->id = 0;
  p->created_at = 0.0;
  p->flow_id = 0;
  free_.push_back(p);
  --stats_.in_use;
}

}  // namespace empls::net
