// Sharded parallel forwarding plane: N worker threads, each owning a
// private replica of the information base, fed over bounded SPSC rings
// by the single dispatcher thread (the caller).
//
// The paper escapes the one-packet-at-a-time software bottleneck with
// dedicated hardware; the MNA ASIC line of work escapes it with
// parallel match-action stages.  This engine models the latter in
// software: packets are partitioned RSS-style by a hash of their update
// key (level, key), so every packet of a flow lands on the same shard
// and per-flow order is preserved by the shard's FIFO ring, while
// distinct flows proceed in parallel.
//
// Consistency model:
//   * The information base is REPLICATED, not partitioned: every shard
//     holds a full copy, so any shard can serve any packet and the
//     results are bit-identical to a single LinearEngine (the
//     differential tests pin this).
//   * The write path (clear / write_pair / corrupt_entry / lookup)
//     runs through a drain-and-quiesce barrier: the dispatcher waits
//     until every ring is empty and every worker is idle, then applies
//     the write to all replicas itself.  Reprogramming therefore never
//     races the data path — exactly the reset-and-reprogram discipline
//     the routing functionality already follows for the hardware.
//   * External callers are single-threaded (the LabelEngine contract);
//     all internal concurrency is hidden behind update/update_batch.
//
// Modelled time: a batch's makespan is the slowest shard's sum of
// per-packet cycles (replicas report their own Table 6 costs), i.e.
// N parallel datapaths — this is what bench_sharding sweeps.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "sw/engine.hpp"
#include "sw/spsc_ring.hpp"

namespace empls::sw {

class ShardedEngine : public LabelEngine {
 public:
  using ReplicaFactory = std::function<std::unique_ptr<LabelEngine>()>;

  /// Hard ceiling on the shard count (a runaway `sharded:<N>` scenario
  /// must not spawn thousands of threads).
  static constexpr unsigned kMaxShards = 64;

  /// `shards` worker threads (clamped to [1, kMaxShards]), each with a
  /// replica from `make_replica` (default: LinearEngine, the golden
  /// model itself — bit-identical outcomes and Table 6 cycle
  /// accounting).
  explicit ShardedEngine(unsigned shards,
                         ReplicaFactory make_replica = ReplicaFactory{});
  ~ShardedEngine() override;

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned parallelism() const noexcept override {
    return static_cast<unsigned>(shards_.size());
  }

  // Read path — quiesces, then reads the key's owning replica.
  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override;
  [[nodiscard]] std::size_t level_size(unsigned level) const override;

  /// Single-packet update: dispatched to the owning shard and awaited,
  /// so even the non-batched router path keeps the single-writer
  /// discipline on the replicas.
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override;

  /// The parallel path: packets fan out to their shards, workers run
  /// concurrently, outcomes come back in input order.  Afterwards
  /// last_batch_makespan_cycles() is the slowest shard's cycle sum and
  /// last_batch_loads() the per-shard packet/cycle split.
  std::vector<UpdateOutcome> update_batch(
      std::span<mpls::Packet* const> packets,
      hw::RouterType router_type) override;

  /// Drain/quiesce barrier: returns once every queued packet has been
  /// processed and all workers are parked.  The write path calls this
  /// internally; it is public so reprogramming agents and tests can
  /// fence explicitly.
  void quiesce();

  struct ShardLoad {
    rtl::u64 packets = 0;
    rtl::u64 cycles = 0;
  };
  /// Per-shard load of the most recent update_batch().
  [[nodiscard]] const std::vector<ShardLoad>& last_batch_loads()
      const noexcept {
    return last_loads_;
  }

  /// Which shard owns a (level, key) — exposed for tests and benches.
  [[nodiscard]] std::size_t shard_of(unsigned level, rtl::u32 key) const;

  /// Test instrumentation: called by WORKER THREADS after each processed
  /// packet; the hook must synchronize internally.  Set only while
  /// quiesced (e.g. before traffic starts).
  using ProcessTrace = std::function<void(
      std::size_t shard, const mpls::Packet& packet,
      const UpdateOutcome& outcome)>;
  void set_trace(ProcessTrace trace);

 protected:
  // Write path — all quiesce first, then touch every replica.
  void do_clear() override;
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override;
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override;

 private:
  struct Job {
    mpls::Packet* packet = nullptr;
    UpdateOutcome* outcome = nullptr;
    unsigned level = 1;
    hw::RouterType router_type = hw::RouterType::kLsr;
  };

  struct Shard {
    std::unique_ptr<LabelEngine> replica;
    SpscRing<Job> ring{1024};
    /// Bumped by the dispatcher after every push (and at shutdown);
    /// workers park on it when the ring runs dry.
    std::atomic<std::uint64_t> doorbell{0};
    /// Touched only by the worker while jobs are in flight; the
    /// dispatcher reads/resets them strictly outside (pending_ == 0
    /// fences both directions).
    ShardLoad load;
    std::thread worker;
  };

  void worker_loop(Shard& shard, std::size_t index);
  void dispatch(Shard& shard, const Job& job);
  [[nodiscard]] std::size_t shard_index(unsigned level,
                                        rtl::u32 key) const noexcept;

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Jobs dispatched but not yet completed, across all shards.  The
  /// worker's release decrement to zero is the quiesce edge.
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  ProcessTrace trace_;
  std::vector<ShardLoad> last_loads_;
};

}  // namespace empls::sw
