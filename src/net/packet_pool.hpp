// Slab-arena packet pool and the move-only handle packets travel in.
//
// The seed simulator copied a heap-backed mpls::Packet into heap-backed
// closures at every hop; the profile was dominated by allocator traffic,
// not label processing.  PacketPool carves packets out of fixed slabs
// and recycles them through a freelist, and PacketHandle is the 16-byte
// token that moves through links, CoS queues and routers instead.  A
// recycled packet keeps its payload and label-stack buffer capacity, so
// steady-state forwarding (acquire → hop → hop → deliver → release)
// performs zero heap allocations per hop.
//
// PacketHandle also wraps a bare mpls::Packet (implicitly, heap-owned):
// compatibility call sites and tests keep working, they just don't get
// the recycling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mpls/packet.hpp"

namespace empls::net {

class PacketPool;

class PacketHandle {
 public:
  PacketHandle() noexcept = default;

  /// Heap-fallback wrap: owns a copy of `packet` outside any pool.  The
  /// implicit conversion keeps `inject(node, some_packet)`-style call
  /// sites working.
  PacketHandle(mpls::Packet&& packet)  // NOLINT(google-explicit-constructor)
      : p_(new mpls::Packet(std::move(packet))) {}

  PacketHandle(PacketHandle&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)),
        pool_(std::exchange(other.pool_, nullptr)) {}

  PacketHandle& operator=(PacketHandle&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = std::exchange(other.p_, nullptr);
      pool_ = std::exchange(other.pool_, nullptr);
    }
    return *this;
  }

  PacketHandle(const PacketHandle&) = delete;
  PacketHandle& operator=(const PacketHandle&) = delete;

  ~PacketHandle() { reset(); }

  [[nodiscard]] mpls::Packet& operator*() const noexcept { return *p_; }
  [[nodiscard]] mpls::Packet* operator->() const noexcept { return p_; }
  [[nodiscard]] mpls::Packet* get() const noexcept { return p_; }

  [[nodiscard]] explicit operator bool() const noexcept {
    return p_ != nullptr;
  }
  /// Optional-style spelling, so call sites written against the old
  /// std::optional<mpls::Packet> queue API read unchanged.
  [[nodiscard]] bool has_value() const noexcept { return p_ != nullptr; }

  /// Return the packet to its pool (or free it) and empty the handle.
  void reset() noexcept;

 private:
  friend class PacketPool;
  PacketHandle(mpls::Packet* p, PacketPool* pool) noexcept
      : p_(p), pool_(pool) {}

  mpls::Packet* p_ = nullptr;
  PacketPool* pool_ = nullptr;  // nullptr → heap-owned fallback
};

class PacketPool {
 public:
  /// `slab_packets` is the arena growth quantum: when the freelist runs
  /// dry a slab of this many packets is carved at once.
  explicit PacketPool(std::size_t slab_packets = 256)
      : slab_packets_(slab_packets == 0 ? 1 : slab_packets) {}

  // Handles hold raw pointers into the slabs; the pool must not move.
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// A fresh (default-state) packet.  Recycled packets keep their buffer
  /// capacity, so a warmed-up pool allocates nothing here.
  [[nodiscard]] PacketHandle acquire();

  struct Stats {
    std::uint64_t acquired = 0;   // total acquire() calls
    std::uint64_t recycled = 0;   // acquires served from the freelist
    std::size_t in_use = 0;       // live pooled handles right now
    std::size_t high_water = 0;   // peak concurrent pooled handles
    std::size_t capacity = 0;     // packets across all slabs
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend class PacketHandle;
  void release(mpls::Packet* p) noexcept;

  std::size_t slab_packets_;
  std::vector<std::unique_ptr<mpls::Packet[]>> slabs_;
  std::vector<mpls::Packet*> free_;
  Stats stats_;
};

inline void PacketHandle::reset() noexcept {
  if (p_ == nullptr) {
    return;
  }
  if (pool_ != nullptr) {
    pool_->release(p_);
  } else {
    delete p_;
  }
  p_ = nullptr;
  pool_ = nullptr;
}

}  // namespace empls::net
