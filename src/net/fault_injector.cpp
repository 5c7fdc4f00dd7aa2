#include "net/fault_injector.hpp"

#include <random>
#include <sstream>

#include "net/mpls_node.hpp"

namespace empls::net {

std::size_t FaultInjector::inject(const FaultSpec& spec) {
  const std::size_t index = records_.size();
  records_.push_back(FaultRecord{spec, false, false, false, 0});
  net_->events().schedule_at(spec.at, [this, index] { apply(index); });
  if (spec.duration > 0) {
    net_->events().schedule_at(spec.at + spec.duration,
                               [this, index] { repair(index); });
  }
  return index;
}

void FaultInjector::apply(std::size_t index) {
  FaultRecord& rec = records_[index];
  rec.injected = true;
  switch (rec.spec.kind) {
    case FaultKind::kCut:
    case FaultKind::kFlap:
      net_->set_connection_up(rec.spec.a, rec.spec.b, false);
      break;
    case FaultKind::kCrash:
      // A dead node is a node whose every adjacency went dark at once.
      for (const auto& adj : net_->adjacency(rec.spec.a)) {
        net_->set_connection_up(rec.spec.a, adj.neighbor, false);
      }
      break;
    case FaultKind::kCorrupt: {
      MplsNode* router = cp_->router_for(rec.spec.a);
      rec.corrupted =
          router != nullptr && router->corrupt_binding(rec.spec.salt);
      break;
    }
  }
}

void FaultInjector::repair(std::size_t index) {
  FaultRecord& rec = records_[index];
  rec.cleared = true;
  switch (rec.spec.kind) {
    case FaultKind::kCut:
    case FaultKind::kFlap:
      net_->set_connection_up(rec.spec.a, rec.spec.b, true);
      break;
    case FaultKind::kCrash:
      for (const auto& adj : net_->adjacency(rec.spec.a)) {
        net_->set_connection_up(rec.spec.a, adj.neighbor, true);
      }
      break;
    case FaultKind::kCorrupt: {
      // The repair for silent corruption is the audit: compare hardware
      // against the software mirror and reprogram on divergence.
      MplsNode* router = cp_->router_for(rec.spec.a);
      if (router != nullptr) {
        rec.resynced = router->resync_hardware();
      }
      break;
    }
  }
}

std::vector<FaultSpec> FaultInjector::generate_campaign(
    std::uint64_t seed, unsigned count, SimTime start, SimTime horizon,
    SimTime detection_window) const {
  std::vector<std::pair<NodeId, NodeId>> connections;
  std::vector<NodeId> routers;
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    if (cp_->router_for(id) != nullptr) {
      routers.push_back(id);
    }
    for (const auto& adj : net_->adjacency(id)) {
      if (id < adj.neighbor) {
        connections.emplace_back(id, adj.neighbor);
      }
    }
  }

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(start, horizon);
  // Flaps stay under half the detection window (consecutive-miss reset
  // must absorb them); everything else outlasts two windows so the
  // hello protocol must declare it.
  std::uniform_real_distribution<double> flap_for(detection_window * 0.1,
                                                  detection_window * 0.5);
  std::uniform_real_distribution<double> outage_for(detection_window * 2.0,
                                                    detection_window * 6.0);
  std::uniform_int_distribution<unsigned> kind_die(0, 99);

  std::vector<FaultSpec> specs;
  specs.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    FaultSpec spec;
    const unsigned roll = kind_die(rng);
    spec.kind = roll < 40   ? FaultKind::kCut
                : roll < 65 ? FaultKind::kFlap
                : roll < 80 ? FaultKind::kCrash
                            : FaultKind::kCorrupt;
    spec.at = when(rng);
    switch (spec.kind) {
      case FaultKind::kCut: {
        if (connections.empty()) {
          continue;
        }
        const auto& c = connections[rng() % connections.size()];
        spec.a = c.first;
        spec.b = c.second;
        spec.duration = outage_for(rng);
        break;
      }
      case FaultKind::kFlap: {
        if (connections.empty()) {
          continue;
        }
        const auto& c = connections[rng() % connections.size()];
        spec.a = c.first;
        spec.b = c.second;
        spec.duration = flap_for(rng);
        break;
      }
      case FaultKind::kCrash:
        if (routers.empty()) {
          continue;
        }
        spec.a = routers[rng() % routers.size()];
        spec.duration = outage_for(rng);
        break;
      case FaultKind::kCorrupt:
        if (routers.empty()) {
          continue;
        }
        spec.a = routers[rng() % routers.size()];
        spec.salt = rng();
        spec.duration = flap_for(rng);  // audit latency
        break;
    }
    specs.push_back(spec);
  }
  return specs;
}

std::size_t FaultInjector::schedule_campaign(
    const std::vector<FaultSpec>& specs) {
  for (const auto& spec : specs) {
    inject(spec);
  }
  return specs.size();
}

std::string FaultInjector::summary() const {
  unsigned cut = 0;
  unsigned flap = 0;
  unsigned crash = 0;
  unsigned corrupt = 0;
  unsigned corrupted = 0;
  unsigned resynced = 0;
  for (const auto& rec : records_) {
    switch (rec.spec.kind) {
      case FaultKind::kCut:
        ++cut;
        break;
      case FaultKind::kFlap:
        ++flap;
        break;
      case FaultKind::kCrash:
        ++crash;
        break;
      case FaultKind::kCorrupt:
        ++corrupt;
        corrupted += rec.corrupted ? 1 : 0;
        resynced += rec.resynced;
        break;
    }
  }
  std::ostringstream os;
  os << "faults=" << records_.size() << " cut=" << cut << " flap=" << flap
     << " crash=" << crash << " corrupt=" << corrupt
     << " corrupted=" << corrupted << " resynced=" << resynced;
  return os.str();
}

DropAccountant::DropAccountant(Network& net) {
  net.add_discard_handler(
      [this](NodeId, const mpls::Packet& p, obs::DropReason) {
        account(p.flow_id);
      });
  net.add_link_drop_handler(
      [this](const mpls::Packet& p, obs::DropReason) { account(p.flow_id); });
}

void DropAccountant::account(std::uint32_t flow_id) {
  ++by_flow_[flow_id];
  ++total_;
}

std::uint64_t DropAccountant::drops(std::uint32_t flow_id) const {
  return by_flow_.get(flow_id);
}

std::uint64_t DropAccountant::drops_in_range(std::uint32_t lo,
                                             std::uint32_t hi) const {
  std::uint64_t sum = 0;
  by_flow_.for_each([&](std::uint32_t flow, std::uint64_t n) {
    if (flow >= lo && flow < hi) {
      sum += n;
    }
  });
  return sum;
}

bool DropAccountant::conserved(const FlowStats& stats) const {
  for (const auto& [id, flow] : stats.flows()) {
    if (flow.sent != flow.delivered + drops(id)) {
      return false;
    }
  }
  return true;
}

}  // namespace empls::net
