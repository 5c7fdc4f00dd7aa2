#include "mpls/label_stack.hpp"

#include <cassert>
#include <sstream>

namespace empls::mpls {

const LabelEntry& LabelStack::top() const {
  assert(!entries_.empty());
  return entries_.back();
}

const LabelEntry& LabelStack::at(std::size_t i) const {
  assert(i < entries_.size());
  return entries_[entries_.size() - 1 - i];
}

bool LabelStack::push(LabelEntry e) {
  if (full()) {
    return false;
  }
  e.bottom = entries_.empty();
  entries_.push_back(e);
  return true;
}

std::optional<LabelEntry> LabelStack::pop() {
  if (entries_.empty()) {
    return std::nullopt;
  }
  LabelEntry e = entries_.back();
  entries_.pop_back();
  return e;
}

bool LabelStack::rewrite_top(std::uint32_t label, std::uint8_t ttl) {
  if (entries_.empty()) {
    return false;
  }
  entries_.back().label = label & kMaxLabel;
  entries_.back().ttl = ttl;
  return true;
}

std::vector<std::uint8_t> LabelStack::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size());
  append_to(out);
  return out;
}

void LabelStack::append_to(std::vector<std::uint8_t>& out) const {
  // Wire order is top first.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    const std::uint32_t w = encode(*it);
    out.push_back(static_cast<std::uint8_t>(w >> 24));
    out.push_back(static_cast<std::uint8_t>(w >> 16));
    out.push_back(static_cast<std::uint8_t>(w >> 8));
    out.push_back(static_cast<std::uint8_t>(w));
  }
}

std::optional<LabelStack> LabelStack::parse(std::span<const std::uint8_t> bytes,
                                            std::size_t capacity) {
  LabelStack stack(capacity);
  if (!parse_into(bytes, stack, capacity)) {
    return std::nullopt;
  }
  return stack;
}

bool LabelStack::parse_into(std::span<const std::uint8_t> bytes,
                            LabelStack& out, std::size_t capacity) {
  auto entry = [&bytes](std::size_t i) {
    const std::size_t off = 4 * i;
    return decode((static_cast<std::uint32_t>(bytes[off]) << 24) |
                  (static_cast<std::uint32_t>(bytes[off + 1]) << 16) |
                  (static_cast<std::uint32_t>(bytes[off + 2]) << 8) |
                  static_cast<std::uint32_t>(bytes[off + 3]));
  };
  // Find the entry with the S bit first, so the entries can then be
  // decoded straight into `out`, bottom first.
  std::size_t depth = 0;
  for (;;) {
    if (4 * depth + 4 > bytes.size()) {
      return false;  // truncated: ran out before an S bit
    }
    ++depth;
    if (entry(depth - 1).bottom) {
      break;
    }
    if (depth > capacity) {
      return false;
    }
  }
  if (depth > capacity) {
    return false;
  }
  out.reset(capacity);
  for (std::size_t i = depth; i-- > 0;) {
    out.push(entry(i));  // push() re-derives S bits bottom-up
  }
  return true;
}

bool LabelStack::s_bit_invariant_holds() const noexcept {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const bool expect_bottom = (i == 0);
    if (entries_[i].bottom != expect_bottom) {
      return false;
    }
  }
  return true;
}

std::string LabelStack::to_string() const {
  std::ostringstream out;
  out << "stack[" << entries_.size() << "]{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << "top-" << i << ": " << mpls::to_string(at(i));
  }
  out << '}';
  return out.str();
}

}  // namespace empls::mpls
