// Test oracle for LinearEngine: the array-of-structures linear scan the
// engine ran before it had a key lane — one stored pair per iteration,
// first match wins — with the same Table 6 cost composition.  The lane
// scan must agree with it position for position, so every outcome,
// stack and modelled cycle count matches.
#pragma once

#include <array>
#include <optional>
#include <string_view>
#include <vector>

#include "hw/cycle_model.hpp"
#include "sw/engine.hpp"
#include "sw/semantics.hpp"

namespace empls::sw::oracle {

class AosLinearEngine : public LabelEngine {
 public:
  explicit AosLinearEngine(std::size_t level_capacity = 1024)
      : capacity_(level_capacity) {}

  [[nodiscard]] std::string_view name() const override { return "aos"; }

  [[nodiscard]] std::optional<mpls::LabelPair> lookup(unsigned level,
                                                      rtl::u32 key) override {
    const auto& l = levels_[level - 1];
    const rtl::u32 mask = mask_of(level);
    for (std::size_t i = 0; i < l.size(); ++i) {
      if ((l[i].index & mask) == (key & mask)) {
        examined_ = i + 1;
        return l[i];
      }
    }
    examined_ = l.size();
    return std::nullopt;
  }

  UpdateOutcome update(mpls::Packet& packet, unsigned level,
                       hw::RouterType router_type) override {
    const UpdateKey k = update_key(packet, level);
    const bool was_empty = packet.stack.empty();
    const auto found = lookup(k.level, k.key);
    UpdateOutcome out = apply_update(packet, found, router_type);
    out.hw_cycles = hw::search_cycles(examined_) +
                    update_tail_cycles(out, was_empty, found.has_value());
    return out;
  }

  [[nodiscard]] std::size_t level_size(unsigned level) const override {
    return levels_[level - 1].size();
  }

  /// 1-based position of the last lookup's hit, or the count on a miss.
  [[nodiscard]] rtl::u64 last_entries_examined() const noexcept {
    return examined_;
  }

 protected:
  void do_clear() override {
    for (auto& l : levels_) {
      l.clear();
    }
  }

  bool do_write_pair(unsigned level, const mpls::LabelPair& pair) override {
    auto& l = levels_[level - 1];
    if (l.size() >= capacity_) {
      return false;
    }
    l.push_back(pair);
    return true;
  }

  bool do_corrupt_entry(unsigned level, rtl::u32 key,
                        rtl::u32 new_label) override {
    const rtl::u32 mask = mask_of(level);
    for (auto& pair : levels_[level - 1]) {
      if ((pair.index & mask) == (key & mask)) {
        pair.new_label = new_label & static_cast<rtl::u32>(mpls::kMaxLabel);
        return true;
      }
    }
    return false;
  }

 private:
  static rtl::u32 mask_of(unsigned level) {
    return level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
  }

  std::size_t capacity_;
  std::array<std::vector<mpls::LabelPair>, 3> levels_;
  rtl::u64 examined_ = 0;
};

}  // namespace empls::sw::oracle
