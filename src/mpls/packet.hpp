// Packet representation shared by the packet-processing interfaces and
// the network simulator.
//
// The paper's routers sit between layer-2 networks (Ethernet, ATM, Frame
// Relay) and an MPLS core (Figure 1).  A Packet carries: the layer-2
// technology it arrived from, a simplified IPv4 header (the destination
// address doubles as the paper's *packet identifier* for level-1
// information-base lookups), the MPLS label stack, and an opaque payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpls/label_stack.hpp"

namespace empls::mpls {

/// Layer-2 technologies named by the paper.
enum class L2Type : std::uint8_t {
  kEthernet = 0,
  kAtm = 1,
  kFrameRelay = 2,
};

[[nodiscard]] std::string_view to_string(L2Type t) noexcept;

/// IPv4 address with dotted-quad helpers.
struct Ipv4Address {
  std::uint32_t value = 0;

  static constexpr Ipv4Address from_octets(std::uint8_t a, std::uint8_t b,
                                           std::uint8_t c,
                                           std::uint8_t d) noexcept {
    return Ipv4Address{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                       (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }

  /// Parse "a.b.c.d"; nullopt on malformed input.
  static std::optional<Ipv4Address> parse(std::string_view text);

  [[nodiscard]] std::string to_string() const;

  friend auto operator<=>(const Ipv4Address&, const Ipv4Address&) = default;
};

struct Packet {
  L2Type l2 = L2Type::kEthernet;
  Ipv4Address src{};
  Ipv4Address dst{};
  std::uint8_t cos = 0;     // class of service requested by the flow (3 bits)
  std::uint8_t ip_ttl = 64; // network-layer TTL, copied into pushed labels
  LabelStack stack;         // empty outside the MPLS domain
  std::vector<std::uint8_t> payload;

  // Simulation metadata (not serialised).
  std::uint64_t id = 0;       // sequence number assigned by the generator
  double created_at = 0.0;    // simulation time of creation, seconds
  std::uint32_t flow_id = 0;  // traffic-generator flow this belongs to

  /// The paper's packet identifier: "For IP packets, the packet
  /// identifier is typically the destination address."
  [[nodiscard]] std::uint32_t packet_identifier() const noexcept {
    return dst.value;
  }

  [[nodiscard]] bool is_labeled() const noexcept { return !stack.empty(); }

  /// Bytes on the wire: fixed header + shim + payload.
  [[nodiscard]] std::size_t wire_size() const noexcept;

  /// Serialise to the repo's wire format (see packet.cpp for the layout).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// serialize() into `out`, replacing its contents and reusing its
  /// storage.
  void serialize_into(std::vector<std::uint8_t>& out) const;

  /// Parse a packet produced by serialize(); nullopt on malformed input.
  static std::optional<Packet> parse(std::span<const std::uint8_t> bytes);

  /// parse() into an existing packet, reusing its stack and payload
  /// storage: on success `out` equals what parse() returns (simulation
  /// metadata included, reset to defaults); on failure it is unspecified.
  static bool parse_into(std::span<const std::uint8_t> bytes, Packet& out);

  [[nodiscard]] std::string to_string() const;
};

/// Serialised fixed-header size in bytes (before shim and payload).
inline constexpr std::size_t kPacketHeaderBytes = 16;

}  // namespace empls::mpls
