// Sharded forwarding plane: a cost model of N parallel datapaths over
// one engine, run on the caller's thread.
//
// The paper escapes the one-packet-at-a-time software bottleneck with
// dedicated hardware; the MNA ASIC line of work escapes it with
// parallel match-action stages.  This engine models the latter: packets
// are assigned RSS-style by a hash of their update key (level, key) to
// one of N datapaths, so every packet of a flow is charged to the same
// datapath while distinct flows are charged in parallel.
//
// The model:
//   * The information base is REPLICATED, not partitioned: every
//     modelled datapath holds the full base, so any of them computes
//     the same result.  One inner engine therefore stands for all N,
//     and outcomes are bit-identical to the inner engine run alone
//     (the differential tests pin this against LinearEngine).
//   * update() and update_batch() run the inner engine in input order;
//     the write and read paths go straight to it.
//   * Modelled time: a batch's makespan is the slowest datapath's sum
//     of per-packet Table 6 cycles (the inner engine reports them) —
//     this is what bench_sharding sweeps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sw/engine.hpp"
#include "sw/linear_engine.hpp"

namespace empls::sw {

class ShardedEngine : public LabelEngine {
 public:
  /// Ceiling on the datapath count, as the `sharded:<N>` grammar allows.
  static constexpr unsigned kMaxShards = 64;

  /// `shards` modelled datapaths (clamped to [1, kMaxShards]) over
  /// `inner` (default: LinearEngine, the golden model itself —
  /// bit-identical outcomes and Table 6 cycle accounting).
  explicit ShardedEngine(
      unsigned shards,
      std::unique_ptr<LabelEngine> inner = std::make_unique<LinearEngine>());

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned parallelism() const noexcept override {
    return static_cast<unsigned>(last_loads_.size());
  }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override {
    return inner_->lookup(level, key);
  }
  [[nodiscard]] std::size_t level_size(unsigned level) const override {
    return inner_->level_size(level);
  }

  /// Single-packet update: the inner engine's, at the caller's level.
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override {
    return inner_->update(packet, level, router_type);
  }

  /// Runs the batch in input order and charges each packet to the
  /// datapath shard_of() picks.  Afterwards last_batch_makespan_cycles()
  /// is the slowest datapath's cycle sum and last_batch_loads() the
  /// per-datapath packet/cycle split.
  std::vector<UpdateOutcome> update_batch(
      std::span<mpls::Packet* const> packets,
      hw::RouterType router_type) override;

  struct ShardLoad {
    rtl::u64 packets = 0;
    rtl::u64 cycles = 0;
  };
  /// Per-datapath load of the most recent update_batch().
  [[nodiscard]] const std::vector<ShardLoad>& last_batch_loads()
      const noexcept {
    return last_loads_;
  }

  /// Which datapath a (level, key) is charged to — exposed for tests
  /// and benches.
  [[nodiscard]] std::size_t shard_of(unsigned level, rtl::u32 key) const;

 protected:
  void do_clear() override { inner_->clear(); }
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override {
    return inner_->write_pair(level, pair);
  }
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override {
    return inner_->corrupt_entry(level, key, new_label);
  }

 private:
  std::string name_;
  std::unique_ptr<LabelEngine> inner_;
  std::vector<ShardLoad> last_loads_;
};

}  // namespace empls::sw
