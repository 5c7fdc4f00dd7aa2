#include "net/qos.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace empls::net {

CosQueueSet::CosQueueSet(QosConfig config)
    : config_(config), red_rng_(config.red_seed) {
  for (auto& q : queues_) {
    q = FixedRing<PacketHandle>(config_.queue_capacity);
  }
  if (config_.scheduler == SchedulerKind::kWeightedRoundRobin) {
    wrr_credit_ = config_.wrr_weights[wrr_cursor_];
  }
}

unsigned CosQueueSet::effective_cos(const mpls::Packet& packet) noexcept {
  if (packet.is_labeled()) {
    return packet.stack.top().cos & 7;
  }
  return packet.cos & 7;
}

bool CosQueueSet::should_drop(unsigned cos) {
  const auto& q = queues_[cos];
  if (q.full()) {
    return true;  // hard limit under any policy
  }
  if (config_.drop == DropPolicy::kRed) {
    const double fill =
        static_cast<double>(q.size()) / config_.queue_capacity;
    if (fill >= config_.red_max_fraction) {
      return true;
    }
    if (fill > config_.red_min_fraction) {
      const double span =
          config_.red_max_fraction - config_.red_min_fraction;
      const double p = (fill - config_.red_min_fraction) / span *
                       config_.red_max_drop_probability;
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (u(red_rng_) < p) {
        return true;
      }
    }
  }
  return false;
}

bool CosQueueSet::enqueue(PacketHandle&& packet) {
  const unsigned cos = config_.scheduler == SchedulerKind::kFifo
                           ? 0
                           : effective_cos(*packet);
  if (should_drop(cos)) {
    ++stats_[cos].dropped;
    return false;  // packet stays with the caller for drop attribution
  }
  queues_[cos].push(std::move(packet));
  ++stats_[cos].enqueued;
  ++total_;
  return true;
}

bool CosQueueSet::admit_cut_through(const mpls::Packet& packet) {
  assert(total_ == 0 && "cut-through requires empty queues");
  const unsigned cos = config_.scheduler == SchedulerKind::kFifo
                           ? 0
                           : effective_cos(packet);
  if (should_drop(cos)) {  // an empty queue only drops in degenerate configs
    ++stats_[cos].dropped;
    return false;
  }
  ++stats_[cos].enqueued;
  ++stats_[cos].dequeued;
  return true;
}

std::optional<unsigned> CosQueueSet::pick_queue() {
  switch (config_.scheduler) {
    case SchedulerKind::kFifo:
      return queues_[0].empty() ? std::nullopt : std::make_optional(0u);
    case SchedulerKind::kStrictPriority:
      for (int cos = 7; cos >= 0; --cos) {
        if (!queues_[cos].empty()) {
          return static_cast<unsigned>(cos);
        }
      }
      return std::nullopt;
    case SchedulerKind::kWeightedRoundRobin: {
      // Visit queues round-robin; each keeps the token for `weight`
      // consecutive dequeues while backlogged.
      for (unsigned attempts = 0; attempts < 16; ++attempts) {
        if (wrr_credit_ > 0 && !queues_[wrr_cursor_].empty()) {
          --wrr_credit_;
          return wrr_cursor_;
        }
        wrr_cursor_ = (wrr_cursor_ + 7) & 7;  // descend 7,6,...,0,7,...
        // A zero weight would starve the queue and break the scheduler's
        // work-conserving guarantee; clamp to 1.
        wrr_credit_ = std::max(1u, config_.wrr_weights[wrr_cursor_]);
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

PacketHandle CosQueueSet::dequeue() {
  if (total_ == 0) {
    return {};
  }
  const auto cos = pick_queue();
  assert(cos.has_value() && "total_ > 0 but no queue selected");
  PacketHandle p = queues_[*cos].pop();
  ++stats_[*cos].dequeued;
  --total_;
  return p;
}

QueueStats CosQueueSet::total_stats() const {
  QueueStats total;
  for (const auto& s : stats_) {
    total.enqueued += s.enqueued;
    total.dropped += s.dropped;
    total.dequeued += s.dequeued;
  }
  return total;
}

}  // namespace empls::net
