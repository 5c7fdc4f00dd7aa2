#include "sw/sharded_engine.hpp"

#include <algorithm>

#include "net/mix.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {

ShardedEngine::ShardedEngine(unsigned shards,
                             std::unique_ptr<LabelEngine> inner)
    : inner_(std::move(inner)),
      last_loads_(std::clamp(shards, 1u, kMaxShards)) {
  name_ = "sharded:" + std::to_string(last_loads_.size());
}

std::size_t ShardedEngine::shard_of(unsigned level, rtl::u32 key) const {
  // mix64 over (level, key): an RSS-style spreading hash so adjacent
  // labels / addresses do not pile onto one datapath.
  return static_cast<std::size_t>(net::mix64_pair(level, key) %
                                  last_loads_.size());
}

std::vector<UpdateOutcome> ShardedEngine::update_batch(
    std::span<mpls::Packet* const> packets, hw::RouterType router_type) {
  std::vector<UpdateOutcome> outcomes;
  outcomes.reserve(packets.size());
  if (packets.empty()) {
    last_batch_makespan_ = 0;
    return outcomes;
  }
  std::fill(last_loads_.begin(), last_loads_.end(), ShardLoad{});
  for (mpls::Packet* packet : packets) {
    const unsigned level = classify_level(*packet);
    // The key is read before the update rewrites the stack.
    const UpdateKey k = update_key(*packet, level);
    ShardLoad& load = last_loads_[shard_of(k.level, k.key)];
    const UpdateOutcome& out =
        outcomes.emplace_back(inner_->update(*packet, level, router_type));
    load.packets += 1;
    load.cycles += out.hw_cycles;
  }
  rtl::u64 makespan = 0;
  for (const ShardLoad& load : last_loads_) {
    makespan = std::max(makespan, load.cycles);
  }
  last_batch_makespan_ = makespan;
  return outcomes;
}

}  // namespace empls::sw
