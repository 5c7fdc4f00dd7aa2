#include "core/ingress.hpp"

#include "sw/semantics.hpp"

namespace empls::core {

IngressProcessor::Classification IngressProcessor::classify(
    const mpls::Packet& packet) noexcept {
  // Level selection is shared with the engines (sw::classify_level) so
  // the batch API classifies exactly as this ingress path does.
  Classification c;
  c.level = sw::classify_level(packet);
  if (packet.stack.empty()) {
    c.key = packet.packet_identifier();
    c.labeled = false;
  } else {
    c.key = packet.stack.top().label;
    c.labeled = true;
  }
  return c;
}

std::optional<mpls::Packet> IngressProcessor::parse(
    std::span<const std::uint8_t> bytes) {
  return mpls::Packet::parse(bytes);
}

bool IngressProcessor::wire_round_trip_ok(const mpls::Packet& packet) {
  // The round trip's verdict, read off the fields.  The addresses, CoS
  // and TTL travel at their full width and the S bits are the stack's
  // own invariant, so only four things make the reparsed packet differ
  // or fail to parse: an l2 code past kFrameRelay (the parser refuses
  // it), a payload longer than the 16-bit length field, a stack whose
  // capacity is not the hardware depth the parser rebuilds it at (an
  // over-deep stack included), and an entry field wider than its
  // declared width (encode truncates it).
  if (packet.l2 > mpls::L2Type::kFrameRelay ||
      packet.payload.size() > 0xFFFF ||
      packet.stack.capacity() != mpls::LabelStack::kHardwareDepth) {
    return false;
  }
  for (std::size_t i = 0; i < packet.stack.size(); ++i) {
    if (!mpls::is_well_formed(packet.stack.at(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace empls::core
