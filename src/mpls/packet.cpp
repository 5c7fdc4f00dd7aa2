#include "mpls/packet.hpp"

#include <array>
#include <charconv>
#include <sstream>

namespace empls::mpls {

// Wire format (big-endian), deliberately close to "L2 tag + shim + IPv4":
//
//   offset  size  field
//   0       1     l2 type
//   1       1     flags: bit0 = labeled (shim present)
//   2       1     cos
//   3       1     ip ttl
//   4       4     src address
//   8       4     dst address
//   12      2     shim length in bytes (0 when unlabeled)
//   14      2     payload length in bytes
//   16      -     shim (label stack, top first), then payload

std::string_view to_string(L2Type t) noexcept {
  switch (t) {
    case L2Type::kEthernet:
      return "Ethernet";
    case L2Type::kAtm:
      return "ATM";
    case L2Type::kFrameRelay:
      return "FrameRelay";
  }
  return "?";
}

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (pos >= text.size() || text[pos] != '.') {
        return std::nullopt;
      }
      ++pos;
    }
    unsigned v = 0;
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr == begin || v > 255) {
      return std::nullopt;
    }
    pos += static_cast<std::size_t>(ptr - begin);
    value = (value << 8) | v;
  }
  if (pos != text.size()) {
    return std::nullopt;
  }
  return Ipv4Address{value};
}

std::string Ipv4Address::to_string() const {
  std::ostringstream out;
  out << ((value >> 24) & 0xFF) << '.' << ((value >> 16) & 0xFF) << '.'
      << ((value >> 8) & 0xFF) << '.' << (value & 0xFF);
  return out.str();
}

std::size_t Packet::wire_size() const noexcept {
  return kPacketHeaderBytes + stack.wire_size() + payload.size();
}

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 8);
  out[1] = static_cast<std::uint8_t>(v);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out + 2, static_cast<std::uint16_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return (static_cast<std::uint32_t>(b[off]) << 24) |
         (static_cast<std::uint32_t>(b[off + 1]) << 16) |
         (static_cast<std::uint32_t>(b[off + 2]) << 8) |
         static_cast<std::uint32_t>(b[off + 3]);
}

}  // namespace

std::vector<std::uint8_t> Packet::serialize() const {
  std::vector<std::uint8_t> out;
  serialize_into(out);
  return out;
}

void Packet::serialize_into(std::vector<std::uint8_t>& out) const {
  std::array<std::uint8_t, kPacketHeaderBytes> header{};
  header[0] = static_cast<std::uint8_t>(l2);
  header[1] = is_labeled() ? 1 : 0;
  header[2] = cos;
  header[3] = ip_ttl;
  put_u32(&header[4], src.value);
  put_u32(&header[8], dst.value);
  put_u16(&header[12], static_cast<std::uint16_t>(stack.wire_size()));
  put_u16(&header[14], static_cast<std::uint16_t>(payload.size()));
  out.clear();
  out.reserve(wire_size());
  out.insert(out.end(), header.begin(), header.end());
  stack.append_to(out);
  out.insert(out.end(), payload.begin(), payload.end());
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> bytes) {
  Packet p;
  if (!parse_into(bytes, p)) {
    return std::nullopt;
  }
  return p;
}

bool Packet::parse_into(std::span<const std::uint8_t> bytes, Packet& out) {
  if (bytes.size() < kPacketHeaderBytes) {
    return false;
  }
  if (bytes[0] > static_cast<std::uint8_t>(L2Type::kFrameRelay)) {
    return false;
  }
  const bool labeled = (bytes[1] & 1) != 0;
  const std::size_t shim_len = get_u16(bytes, 12);
  const std::size_t payload_len = get_u16(bytes, 14);
  if (bytes.size() != kPacketHeaderBytes + shim_len + payload_len) {
    return false;
  }
  if (labeled != (shim_len > 0) || shim_len % 4 != 0) {
    return false;
  }
  if (labeled) {
    if (!LabelStack::parse_into(bytes.subspan(kPacketHeaderBytes, shim_len),
                                out.stack) ||
        out.stack.wire_size() != shim_len) {
      return false;
    }
  } else {
    out.stack.reset();
  }
  out.l2 = static_cast<L2Type>(bytes[0]);
  out.cos = bytes[2];
  out.ip_ttl = bytes[3];
  out.src = Ipv4Address{get_u32(bytes, 4)};
  out.dst = Ipv4Address{get_u32(bytes, 8)};
  const auto payload = bytes.subspan(kPacketHeaderBytes + shim_len);
  out.payload.assign(payload.begin(), payload.end());
  out.id = 0;
  out.created_at = 0.0;
  out.flow_id = 0;
  return true;
}

std::string Packet::to_string() const {
  std::ostringstream out;
  out << "packet{" << mpls::to_string(l2) << ' ' << src.to_string() << " -> "
      << dst.to_string() << " cos=" << static_cast<unsigned>(cos)
      << " ttl=" << static_cast<unsigned>(ip_ttl) << ' ' << stack.to_string()
      << " payload=" << payload.size() << "B}";
  return out.str();
}

}  // namespace empls::mpls
