// The label stack (Figure 4 of the paper).
//
// Labels are pushed and popped like a stack; the top-most entry is the
// one a router processes.  The paper bounds nesting at three levels
// ("label stacks do not normally exceed two or three labels"), and the
// hardware data path provides exactly three information-base levels, so
// the default capacity is 3.  The S (bottom-of-stack) bit is an invariant
// maintained by this class: set on the deepest entry, clear elsewhere.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpls/label.hpp"

namespace empls::mpls {

class LabelStack {
 public:
  /// Hardware stack depth (three information-base levels).
  static constexpr std::size_t kHardwareDepth = 3;

  explicit LabelStack(std::size_t capacity = kHardwareDepth)
      : capacity_(capacity) {}

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return entries_.size() >= capacity_;
  }

  /// Top-most entry (the one processed at the current router).
  [[nodiscard]] const LabelEntry& top() const;

  /// Entry at depth `i`, 0 = top.
  [[nodiscard]] const LabelEntry& at(std::size_t i) const;

  /// Push `e` on top.  The entry's S bit is overwritten to maintain the
  /// bottom-of-stack invariant.  Returns false (stack unchanged) when the
  /// stack is at capacity — the hardware discards such packets.
  bool push(LabelEntry e);

  /// Pop and return the top entry; nullopt when empty.
  std::optional<LabelEntry> pop();

  /// Replace the top entry's label/TTL in place (used by the POP flow's
  /// "modify the new top stack entry" and by SWAP-style rewrites).
  /// Returns false when empty.
  bool rewrite_top(std::uint32_t label, std::uint8_t ttl);

  /// Discard the packet's labels: reset to empty (Figure 9's
  /// DISCARD PACKET resets the label stack).
  void clear() noexcept { entries_.clear(); }

  /// Empty the stack and set its capacity, keeping its storage: the
  /// state of a freshly constructed LabelStack(capacity).
  void reset(std::size_t capacity = kHardwareDepth) noexcept {
    entries_.clear();
    capacity_ = capacity;
  }

  /// Wire serialisation: top entry first, 4 bytes per entry, big-endian,
  /// exactly as the shim header appears on the wire (RFC 3032).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Append serialize()'s bytes to `out` (no allocation when `out` has
  /// the room).
  void append_to(std::vector<std::uint8_t>& out) const;

  /// Parse a shim header from `bytes`.  Consumes entries until one with
  /// the S bit set; returns nullopt on truncated input, more entries than
  /// `capacity`, or zero entries.
  static std::optional<LabelStack> parse(std::span<const std::uint8_t> bytes,
                                         std::size_t capacity = kHardwareDepth);

  /// parse() into an existing stack, reusing its storage: on success
  /// `out` equals what parse() returns; on failure it is unspecified.
  static bool parse_into(std::span<const std::uint8_t> bytes, LabelStack& out,
                         std::size_t capacity = kHardwareDepth);

  /// Number of bytes serialize() produces.
  [[nodiscard]] std::size_t wire_size() const noexcept {
    return entries_.size() * 4;
  }

  /// The S-bit invariant: exactly the deepest entry is marked bottom.
  /// Always true for stacks built through this interface; exposed so
  /// property tests can check it after arbitrary operation sequences.
  [[nodiscard]] bool s_bit_invariant_holds() const noexcept;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const LabelStack&, const LabelStack&) = default;

 private:
  // entries_[0] is the BOTTOM of the stack; back() is the top.  This
  // matches the hardware layout where level 1 memory serves the deepest
  // entry.
  std::vector<LabelEntry> entries_;
  std::size_t capacity_;
};

}  // namespace empls::mpls
