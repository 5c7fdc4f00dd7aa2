// Software mirror of the hardware algorithm: three append-only levels
// scanned linearly, first match wins.  This is both (a) the "entirely
// software based" MPLS the paper contrasts against, doing exactly what
// the hardware does, and (b) the golden model differential tests compare
// the RTL against.
//
// Each level keeps its pairs as written next to a contiguous key lane:
// the level-masked compare keys, zero-padded to whole kLaneWidth-key
// blocks.  The search compares a whole block against the query at once
// and priority-encodes the first match (std::countr_zero standing in for
// the hardware's priority encoder) — the software form of the datapath's
// comparator, and of the wide parallel match stages MNA maps the lookup
// onto on switching ASICs.  It still reports the 1-based position of the
// first match, so the modelled cost is the paper's.
//
// UpdateOutcome::hw_cycles carries the Table 6 cost the equivalent
// hardware run would take (3k+5 search + tail), so the engine can stand
// in for the RTL in large simulations at identical modelled cost.
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "sw/engine.hpp"

namespace empls::sw {

class LinearEngine : public LabelEngine {
 public:
  /// u32 keys compared per block.  16 × 32-bit lanes = four SSE2/NEON
  /// vectors or one unrolled scalar block — small enough to stay in
  /// registers everywhere.
  static constexpr std::size_t kLaneWidth = 16;

  explicit LinearEngine(std::size_t level_capacity = 1024)
      : capacity_(level_capacity) {
    // The capacity is a hard bound (write_pair refuses past it), so the
    // levels and their padded key lanes are sized once here and never
    // reallocate mid-run.
    for (auto& level : levels_) {
      level.pairs.reserve(capacity_);
      level.keys.reserve((capacity_ + kLaneWidth - 1) / kLaneWidth *
                         kLaneWidth);
    }
  }

  [[nodiscard]] std::string_view name() const override { return "linear"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override;
  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override;
  std::vector<UpdateOutcome> update_batch(
      std::span<mpls::Packet* const> packets,
      hw::RouterType router_type) override;
  [[nodiscard]] std::size_t level_size(unsigned level) const override;
  [[nodiscard]] bool cacheable() const noexcept override { return true; }
  [[nodiscard]] rtl::u64 last_lookup_cost_cycles() const noexcept override;

  /// 1-based position of the hit of the last lookup, or the stored count
  /// on a miss — the `k`/`n` of the 3k+5 cost formula.
  [[nodiscard]] rtl::u64 last_entries_examined() const noexcept {
    return last_examined_;
  }

  /// Which block kernel this build selected: "sse2", "neon" or
  /// "portable" (also what EMPLS_SIMD_FORCE_SCALAR pins).
  [[nodiscard]] static std::string_view kernel() noexcept;

  /// Index of the first of `keys` equal to `key`, or keys.size() when
  /// none is, scanned by the selected kernel.  keys.size() must be a
  /// whole number of kLaneWidth blocks.
  [[nodiscard]] static std::size_t scan(std::span<const rtl::u32> keys,
                                        rtl::u32 key) noexcept;
  /// scan() by the portable kernel, whatever the build selected.
  [[nodiscard]] static std::size_t scan_portable(
      std::span<const rtl::u32> keys, rtl::u32 key) noexcept;

 protected:
  void do_clear() override;
  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override;
  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override;

 private:
  /// One information-base level.  `pairs` holds the pairs as written
  /// (its size is the occupancy); `keys` holds their masked keys at the
  /// same positions, followed by zero pad lanes up to the next whole
  /// block.  A pad lane can match key 0, but only at a position >= the
  /// occupancy, which find() turns into a miss.
  struct Level {
    std::vector<rtl::u32> keys;
    std::vector<mpls::LabelPair> pairs;
  };

  Level& level_ref(unsigned level);
  [[nodiscard]] const Level& level_ref(unsigned level) const;
  /// Position of the first pair at `level` whose masked index equals
  /// the masked `key`, or the occupancy when there is none.
  [[nodiscard]] static std::size_t find(const Level& l, unsigned level,
                                        rtl::u32 key) noexcept;

  std::size_t capacity_;
  std::array<Level, 3> levels_;
  rtl::u64 last_examined_ = 0;
};

}  // namespace empls::sw
