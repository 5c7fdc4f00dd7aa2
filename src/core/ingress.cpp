#include "core/ingress.hpp"

#include <vector>

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
  // Per-thread scratch (free-running domains validate on several
  // threads): once warmed, the round trip allocates nothing.
  thread_local std::vector<std::uint8_t> bytes;
  thread_local mpls::Packet reparsed;
  packet.serialize_into(bytes);
  if (!mpls::Packet::parse_into(bytes, reparsed)) {
    return false;
  }
  return reparsed.l2 == packet.l2 && reparsed.src == packet.src &&
         reparsed.dst == packet.dst && reparsed.cos == packet.cos &&
         reparsed.ip_ttl == packet.ip_ttl &&
         reparsed.stack == packet.stack &&
         reparsed.payload == packet.payload;
}

}  // namespace empls::core
