// Canonical taxonomy of packet-discard causes.
//
// Every discard site in the simulator — router processing (malformed
// wire form, policer, engine-queue overrun, lookup miss, TTL expiry,
// inconsistent operation, unresolvable next hop) and link transmission
// (offered while down, CoS queue overflow) — maps onto one DropReason,
// so the scenario report and the metrics snapshot can break losses down
// per cause instead of a single aggregate.  Discards travel as this enum
// from the discard site to the books; the to_string() names are what OAM
// probe results, the scenario report and the `empls_drops_total` labels
// print.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace empls::obs {

enum class DropReason : std::uint8_t {
  kInfoBaseMiss = 0,  // no information-base entry for the key
  kTtlExpired,        // TTL reached zero after the decrement
  kInconsistent,      // VERIFY INFO failure: bad op / overflow / type
  kNoRoute,           // engine resolved, but no next hop programmed
  kMalformed,         // corrupt wire form (failed serialize/parse check)
  kPolicer,           // ingress token bucket out of profile
  kEngineOverrun,     // engine input queue full (router saturated)
  kQueueOverflow,     // link CoS queue full (or RED early drop)
  kLinkDown,          // offered to a failed link (fault-injected)
  // Ingress-guard refusals (net::IngressGuard): each protection the
  // guard composes stamps its own reason, so an attack campaign's
  // traffic is fully attributable in the drop partition.
  kReservedLabel,        // top label in the reserved range 0..15
  kSpoofedLabel,         // off-domain label with no programmed binding
  kTtlRateLimited,       // TTL-expiry processing budget exceeded
  kReprogramRateLimited, // info-base reprogram admission refused
  kOverloadShed,         // graceful degradation shed (lowest CoS first)
  kOther,             // a discard with no more specific reason
};

inline constexpr std::size_t kDropReasonCount = 15;

/// Per-reason tally, indexed by DropReason.
using DropCounts = std::array<std::uint64_t, kDropReasonCount>;

[[nodiscard]] constexpr std::string_view to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::kInfoBaseMiss:
      return "no-label-binding";
    case DropReason::kTtlExpired:
      return "ttl-expired";
    case DropReason::kInconsistent:
      return "inconsistent-operation";
    case DropReason::kNoRoute:
      return "no-next-hop";
    case DropReason::kMalformed:
      return "malformed";
    case DropReason::kPolicer:
      return "policer";
    case DropReason::kEngineOverrun:
      return "engine-overrun";
    case DropReason::kQueueOverflow:
      return "queue-full";
    case DropReason::kLinkDown:
      return "link-down";
    case DropReason::kReservedLabel:
      return "reserved-label";
    case DropReason::kSpoofedLabel:
      return "spoofed-label";
    case DropReason::kTtlRateLimited:
      return "ttl-rate-limited";
    case DropReason::kReprogramRateLimited:
      return "reprogram-rate-limited";
    case DropReason::kOverloadShed:
      return "overload-shed";
    case DropReason::kOther:
      return "other";
  }
  return "?";
}

}  // namespace empls::obs
