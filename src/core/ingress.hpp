// Ingress packet processing interface (Figure 6).
//
// "The ingress packet processing interface is used to deliver the label
// stack and a packet identifier to the label stack modifier."  This
// module classifies an arriving packet: which information-base level the
// update must search and with which key, plus wire-level validation
// (parse/serialize round trip) so malformed packets never reach the
// modifier.
#pragma once

#include <optional>
#include <span>

#include "mpls/packet.hpp"
#include "rtl/types.hpp"

namespace empls::core {

class IngressProcessor {
 public:
  struct Classification {
    unsigned level = 1;  // information-base level to search
    rtl::u32 key = 0;    // packet identifier (level 1) or top label
    bool labeled = false;
  };

  /// Level/key selection.  Empty stack → level 1 keyed by the packet
  /// identifier (destination address); depth-d stacks → level min(d+1,3)
  /// keyed by the top label.  Level 1 is reserved for identifiers, so
  /// depth 1 maps to level 2 and the deepest nesting shares level 3
  /// (DESIGN.md §5.6).
  [[nodiscard]] static Classification classify(
      const mpls::Packet& packet) noexcept;

  /// Wire-level entry point: parse raw bytes into a packet (nullopt on
  /// malformed input — truncated shim, bad S-bit chain, over-deep stack).
  [[nodiscard]] static std::optional<mpls::Packet> parse(
      std::span<const std::uint8_t> bytes);

  /// Integrity check used by the router's validation mode: a packet must
  /// survive a serialize → parse round trip unchanged.  The verdict is
  /// computed from the field widths, without serialising, so it
  /// allocates nothing.
  [[nodiscard]] static bool wire_round_trip_ok(const mpls::Packet& packet);
};

}  // namespace empls::core
