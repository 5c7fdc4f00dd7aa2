#include "sw/linear_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "hw/cycle_model.hpp"
#include "sw/semantics.hpp"

// Kernel selection: explicit SSE2 / NEON block comparators when the
// target has them, otherwise a portable lane loop.  Defining
// EMPLS_SIMD_FORCE_SCALAR pins the portable kernel for the whole
// engine; LinearEngine::scan_portable runs it on any build, which is
// how the tests cover it.
#if !defined(EMPLS_SIMD_FORCE_SCALAR)
#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define EMPLS_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define EMPLS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace empls::sw {
namespace {

constexpr std::size_t kLane = LinearEngine::kLaneWidth;

/// Level 1 compares the full 32-bit packet identifier; levels 2 and 3
/// compare 20-bit labels, matching the datapath's comparators.
constexpr rtl::u32 key_mask(unsigned level) noexcept {
  return level == 1 ? ~rtl::u32{0} : static_cast<rtl::u32>(mpls::kMaxLabel);
}

/// Portable kernel: per block, bit j of the mask is set iff keys[j] ==
/// key — the comparator bank's outputs — and countr_zero of the first
/// non-zero mask is the priority encoder.
std::size_t scan_portable_keys(const rtl::u32* keys, std::size_t padded,
                               rtl::u32 key) noexcept {
  for (std::size_t base = 0; base < padded; base += kLane) {
    std::uint32_t m = 0;
    for (unsigned j = 0; j < kLane; ++j) {
      m |= static_cast<std::uint32_t>(keys[base + j] == key) << j;
    }
    if (m != 0) {
      return base + static_cast<std::size_t>(std::countr_zero(m));
    }
  }
  return padded;
}

#if defined(EMPLS_SIMD_SSE2)
/// Precise priority encode within one 16-lane block known to match.
inline std::size_t encode_block(const __m128i e0, const __m128i e1,
                                const __m128i e2,
                                const __m128i e3) noexcept {
  const auto m =
      static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(e0))) |
      (static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(e1)))
       << 4) |
      (static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(e2)))
       << 8) |
      (static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(e3)))
       << 12);
  return static_cast<std::size_t>(std::countr_zero(m));
}

/// SSE2 kernel.  The hot (no-match) path pays compares, ORs and ONE
/// movemask any-test per 32 keys; the precise per-lane bitmask — the
/// priority encoder's input — is only built in the 16-lane block that
/// holds a match.
inline std::size_t scan_keys(const rtl::u32* keys, std::size_t padded,
                             rtl::u32 key) noexcept {
  const __m128i q = _mm_set1_epi32(static_cast<int>(key));
  std::size_t base = 0;
  // Two 16-lane blocks (two cache lines of keys) per iteration, folded
  // into a single any-match test.
  for (; base + 2 * kLane <= padded; base += 2 * kLane) {
    const auto* k = reinterpret_cast<const __m128i*>(keys + base);
    const __m128i e0 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 0), q);
    const __m128i e1 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 1), q);
    const __m128i e2 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 2), q);
    const __m128i e3 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 3), q);
    const __m128i e4 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 4), q);
    const __m128i e5 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 5), q);
    const __m128i e6 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 6), q);
    const __m128i e7 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 7), q);
    const __m128i lo =
        _mm_or_si128(_mm_or_si128(e0, e1), _mm_or_si128(e2, e3));
    const __m128i hi =
        _mm_or_si128(_mm_or_si128(e4, e5), _mm_or_si128(e6, e7));
    if (_mm_movemask_epi8(_mm_or_si128(lo, hi)) != 0) {
      if (_mm_movemask_epi8(lo) != 0) {
        return base + encode_block(e0, e1, e2, e3);
      }
      return base + kLane + encode_block(e4, e5, e6, e7);
    }
  }
  // At most one 16-lane tail block (padding rounds to 16, not 32).
  if (base < padded) {
    const auto* k = reinterpret_cast<const __m128i*>(keys + base);
    const __m128i e0 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 0), q);
    const __m128i e1 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 1), q);
    const __m128i e2 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 2), q);
    const __m128i e3 = _mm_cmpeq_epi32(_mm_loadu_si128(k + 3), q);
    const __m128i any =
        _mm_or_si128(_mm_or_si128(e0, e1), _mm_or_si128(e2, e3));
    if (_mm_movemask_epi8(any) != 0) {
      return base + encode_block(e0, e1, e2, e3);
    }
  }
  return padded;
}
#elif defined(EMPLS_SIMD_NEON)
/// NEON kernel: the portable kernel's block mask, four lanes per
/// compare.
inline std::size_t scan_keys(const rtl::u32* keys, std::size_t padded,
                             rtl::u32 key) noexcept {
  const uint32x4_t q = vdupq_n_u32(key);
  const uint32x4_t bit = {1u, 2u, 4u, 8u};
  for (std::size_t base = 0; base < padded; base += kLane) {
    std::uint32_t m = 0;
    for (unsigned g = 0; g < kLane / 4; ++g) {
      const uint32x4_t eq = vceqq_u32(vld1q_u32(keys + base + 4 * g), q);
      m |= vaddvq_u32(vandq_u32(eq, bit)) << (4 * g);
    }
    if (m != 0) {
      return base + static_cast<std::size_t>(std::countr_zero(m));
    }
  }
  return padded;
}
#else
inline std::size_t scan_keys(const rtl::u32* keys, std::size_t padded,
                             rtl::u32 key) noexcept {
  return scan_portable_keys(keys, padded, key);
}
#endif

}  // namespace

std::string_view LinearEngine::kernel() noexcept {
#if defined(EMPLS_SIMD_SSE2)
  return "sse2";
#elif defined(EMPLS_SIMD_NEON)
  return "neon";
#else
  return "portable";
#endif
}

std::size_t LinearEngine::scan(std::span<const rtl::u32> keys,
                               rtl::u32 key) noexcept {
  assert(keys.size() % kLaneWidth == 0);
  return scan_keys(keys.data(), keys.size(), key);
}

std::size_t LinearEngine::scan_portable(std::span<const rtl::u32> keys,
                                        rtl::u32 key) noexcept {
  assert(keys.size() % kLaneWidth == 0);
  return scan_portable_keys(keys.data(), keys.size(), key);
}

LinearEngine::Level& LinearEngine::level_ref(unsigned level) {
  assert(level >= 1 && level <= 3);
  return levels_[level - 1];
}

const LinearEngine::Level& LinearEngine::level_ref(unsigned level) const {
  assert(level >= 1 && level <= 3);
  return levels_[level - 1];
}

std::size_t LinearEngine::find(const Level& l, unsigned level,
                               rtl::u32 key) noexcept {
  const std::size_t idx =
      scan_keys(l.keys.data(), l.keys.size(), key & key_mask(level));
  // Pad lanes only exist at positions >= the occupancy, so a first match
  // there means no real match — and none can follow, since everything
  // past it is pad too.
  return std::min(idx, l.pairs.size());
}

void LinearEngine::do_clear() {
  for (auto& l : levels_) {
    l.keys.clear();
    l.pairs.clear();
  }
}

bool LinearEngine::do_write_pair(unsigned level, const mpls::LabelPair& pair) {
  Level& l = level_ref(level);
  if (l.pairs.size() >= capacity_) {
    return false;
  }
  if (l.pairs.size() == l.keys.size()) {
    l.keys.resize(l.keys.size() + kLaneWidth, 0);  // a fresh pad block
  }
  l.keys[l.pairs.size()] = pair.index & key_mask(level);
  l.pairs.push_back(pair);
  return true;
}

std::optional<mpls::LabelPair> LinearEngine::lookup(unsigned level,
                                                    rtl::u32 key) {
  const Level& l = level_ref(level);
  const std::size_t idx = find(l, level, key);
  if (idx < l.pairs.size()) {
    last_examined_ = idx + 1;
    return l.pairs[idx];
  }
  last_examined_ = l.pairs.size();
  return std::nullopt;
}

UpdateOutcome LinearEngine::update(mpls::Packet& packet, unsigned level,
                                   hw::RouterType router_type) {
  const UpdateKey k = update_key(packet, level);
  const bool was_empty = packet.stack.empty();
  const auto found = LinearEngine::lookup(k.level, k.key);
  UpdateOutcome out = apply_update(packet, found, router_type);

  // Modelled hardware cost of the identical run (Table 6).
  out.hw_cycles = hw::search_cycles(last_examined_) +
                  update_tail_cycles(out, was_empty, found.has_value());
  return out;
}

rtl::u64 LinearEngine::last_lookup_cost_cycles() const noexcept {
  return hw::search_cycles(last_examined_);
}

std::vector<UpdateOutcome> LinearEngine::update_batch(
    std::span<mpls::Packet* const> packets, hw::RouterType router_type) {
  // Same semantics as the base loop, but statically bound: the batch
  // path skips per-packet virtual dispatch, which matters at the packet
  // rates bench_sharding drives through the software plane.
  std::vector<UpdateOutcome> outcomes;
  outcomes.reserve(packets.size());
  rtl::u64 cycles = 0;
  for (mpls::Packet* packet : packets) {
    outcomes.push_back(
        LinearEngine::update(*packet, classify_level(*packet), router_type));
    cycles += outcomes.back().hw_cycles;
  }
  last_batch_makespan_ = cycles;
  return outcomes;
}

std::size_t LinearEngine::level_size(unsigned level) const {
  return level_ref(level).pairs.size();
}

bool LinearEngine::do_corrupt_entry(unsigned level, rtl::u32 key,
                                    rtl::u32 new_label) {
  Level& l = level_ref(level);
  const std::size_t idx = find(l, level, key);
  if (idx == l.pairs.size()) {
    return false;
  }
  l.pairs[idx].new_label = new_label & static_cast<rtl::u32>(mpls::kMaxLabel);
  return true;
}

}  // namespace empls::sw
