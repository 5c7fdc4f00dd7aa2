#include "sw/sharded_engine.hpp"

#include <algorithm>

#include "net/mix.hpp"
#include "sw/linear_engine.hpp"
#include "sw/semantics.hpp"

namespace empls::sw {

ShardedEngine::ShardedEngine(unsigned shards, ReplicaFactory make_replica) {
  const unsigned n = std::clamp(shards, 1u, kMaxShards);
  name_ = "sharded:" + std::to_string(n);
  if (!make_replica) {
    make_replica = [] { return std::make_unique<LinearEngine>(); };
  }
  shards_.reserve(n);
  last_loads_.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->replica = make_replica();
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard* s = shards_[i].get();
    shards_[i]->worker = std::thread([this, s, i] { worker_loop(*s, i); });
  }
}

ShardedEngine::~ShardedEngine() {
  quiesce();
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->doorbell.fetch_add(1, std::memory_order_release);
    shard->doorbell.notify_all();
  }
  for (auto& shard : shards_) {
    shard->worker.join();
  }
}

std::size_t ShardedEngine::shard_index(unsigned level,
                                       rtl::u32 key) const noexcept {
  // mix64 over (level, key): an RSS-style spreading hash so adjacent
  // labels / addresses do not pile onto one shard.
  return static_cast<std::size_t>(net::mix64_pair(level, key) %
                                  shards_.size());
}

std::size_t ShardedEngine::shard_of(unsigned level, rtl::u32 key) const {
  return shard_index(level, key);
}

void ShardedEngine::worker_loop(Shard& shard, std::size_t index) {
  for (;;) {
    Job job;
    if (shard.ring.try_pop(job)) {
      *job.outcome =
          shard.replica->update(*job.packet, job.level, job.router_type);
      shard.load.packets += 1;
      shard.load.cycles += job.outcome->hw_cycles;
      if (trace_) {
        trace_(index, *job.packet, *job.outcome);
      }
      // The release decrement publishes the outcome, the packet
      // mutation and the load counters; the dispatcher's acquire load
      // of zero synchronizes with every decrement in the sequence.
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_all();
      }
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      return;
    }
    const auto ticket = shard.doorbell.load(std::memory_order_acquire);
    // Re-check after reading the ticket: a push that completed between
    // the failed pop and the load bumped the doorbell already, so
    // wait() below returns immediately instead of sleeping through it.
    if (shard.ring.size() > 0 || stop_.load(std::memory_order_acquire)) {
      continue;
    }
    shard.doorbell.wait(ticket, std::memory_order_acquire);
  }
}

void ShardedEngine::dispatch(Shard& shard, const Job& job) {
  // Bounded backpressure: a full ring means the worker is saturated;
  // yield until it drains a slot.
  while (!shard.ring.try_push(job)) {
    std::this_thread::yield();
  }
  shard.doorbell.fetch_add(1, std::memory_order_release);
  shard.doorbell.notify_one();
}

void ShardedEngine::quiesce() {
  std::size_t in_flight;
  while ((in_flight = pending_.load(std::memory_order_acquire)) != 0) {
    pending_.wait(in_flight, std::memory_order_acquire);
  }
}

void ShardedEngine::do_clear() {
  quiesce();
  for (auto& shard : shards_) {
    shard->replica->clear();
  }
}

bool ShardedEngine::do_write_pair(unsigned level,
                                  const mpls::LabelPair& pair) {
  quiesce();
  // Replicas are identical, so they all accept or all reject (level
  // full); fold with AND to keep the single-engine contract.
  bool ok = true;
  for (auto& shard : shards_) {
    ok = shard->replica->write_pair(level, pair) && ok;
  }
  return ok;
}

bool ShardedEngine::do_corrupt_entry(unsigned level, rtl::u32 key,
                                     rtl::u32 new_label) {
  quiesce();
  // The fault model garbles the programmed binding itself (the image
  // every replica was written from), so all replicas diverge the same
  // way and the resync audit sees the corruption no matter which
  // replica it reads.
  bool ok = true;
  for (auto& shard : shards_) {
    ok = shard->replica->corrupt_entry(level, key, new_label) && ok;
  }
  return ok;
}

std::optional<mpls::LabelPair> ShardedEngine::lookup(unsigned level,
                                                     rtl::u32 key) {
  quiesce();
  return shards_[shard_index(level, key)]->replica->lookup(level, key);
}

std::size_t ShardedEngine::level_size(unsigned level) const {
  // const: cannot quiesce, but replicas only change on the (external,
  // single-threaded) write path, which quiesced before writing — the
  // sizes are stable whenever a caller can legally observe them.
  return shards_.front()->replica->level_size(level);
}

void ShardedEngine::set_trace(ProcessTrace trace) {
  quiesce();
  trace_ = std::move(trace);
}

UpdateOutcome ShardedEngine::update(mpls::Packet& packet, unsigned level,
                                    hw::RouterType router_type) {
  const UpdateKey k = update_key(packet, level);
  UpdateOutcome outcome;
  pending_.store(1, std::memory_order_relaxed);
  dispatch(*shards_[shard_index(k.level, k.key)],
           Job{&packet, &outcome, level, router_type});
  quiesce();
  return outcome;
}

std::vector<UpdateOutcome> ShardedEngine::update_batch(
    std::span<mpls::Packet* const> packets, hw::RouterType router_type) {
  std::vector<UpdateOutcome> outcomes(packets.size());
  if (packets.empty()) {
    last_batch_makespan_ = 0;
    return outcomes;
  }
  for (auto& shard : shards_) {
    shard->load = ShardLoad{};  // workers idle: safe to reset
  }
  // Count the whole batch up front so pending_ cannot transiently hit
  // zero (and wake the barrier) while dispatch is still in progress.
  pending_.store(packets.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    mpls::Packet* packet = packets[i];
    const unsigned level = classify_level(*packet);
    const UpdateKey k = update_key(*packet, level);
    dispatch(*shards_[shard_index(k.level, k.key)],
             Job{packet, &outcomes[i], level, router_type});
  }
  quiesce();

  rtl::u64 makespan = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    last_loads_[s] = shards_[s]->load;
    makespan = std::max(makespan, last_loads_[s].cycles);
  }
  last_batch_makespan_ = makespan;
  return outcomes;
}

}  // namespace empls::sw
