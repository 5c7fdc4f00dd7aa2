// CoS-aware output queueing.
//
// The paper: "The CoS bits affect the scheduling and/or discard
// algorithms applied to the packet as it is transmitted through the
// network."  Each output port owns a CosQueueSet: eight queues (one per
// 3-bit CoS value), a discard policy (tail drop, or RED on the lower
// classes), and a scheduler (strict priority, or weighted round robin)
// that the link's transmitter consults for the next packet.
//
// Queues hold PacketHandles in fixed rings sized at construction — the
// per-queue capacity is a hard bound anyway — so enqueue/dequeue never
// touch the allocator.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "net/packet_pool.hpp"

namespace empls::net {

enum class SchedulerKind : std::uint8_t {
  kFifo,            // single queue, CoS ignored (baseline)
  kStrictPriority,  // higher CoS always first
  kWeightedRoundRobin,
};

enum class DropPolicy : std::uint8_t {
  kTailDrop,
  kRed,  // random early detection on queue depth
};

struct QosConfig {
  SchedulerKind scheduler = SchedulerKind::kStrictPriority;
  DropPolicy drop = DropPolicy::kTailDrop;
  /// Per-queue capacity in packets.
  std::size_t queue_capacity = 64;
  /// WRR weights per CoS (ignored by other schedulers).
  std::array<unsigned, 8> wrr_weights{1, 1, 2, 2, 4, 4, 8, 8};
  /// RED thresholds as fractions of capacity.
  double red_min_fraction = 0.5;
  double red_max_fraction = 0.9;
  double red_max_drop_probability = 0.5;
  std::uint64_t red_seed = 12345;
};

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dequeued = 0;
};

/// Fixed-capacity FIFO ring of move-only elements (packet handles, or
/// anything that holds one).  Capacity is set once; push/pop never
/// allocate.  A default-constructed ring has capacity 0 and holds no
/// storage.
template <typename T>
class FixedRing {
 public:
  FixedRing() = default;
  explicit FixedRing(std::size_t capacity) : slots_(capacity) {}

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept {
    return count_ == slots_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  void push(T item) noexcept {
    slots_[(head_ + count_) % slots_.size()] = std::move(item);
    ++count_;
  }

  T pop() noexcept {
    T item = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --count_;
    return item;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

class CosQueueSet {
 public:
  explicit CosQueueSet(QosConfig config = {});

  /// Enqueue by the packet's effective CoS (top label CoS when labeled,
  /// otherwise the packet's own class).  Returns false on drop — the
  /// refused handle is left intact in `packet`, so the caller can
  /// attribute the loss without copying.
  bool enqueue(PacketHandle&& packet);

  /// Next packet according to the scheduler; an empty handle when all
  /// queues are empty.
  PacketHandle dequeue();

  /// Fast-path admission for a packet that would be dequeued in the same
  /// instant (idle transmitter, empty queues): applies the drop policy
  /// and accounting of an enqueue+dequeue pair without touching the
  /// rings.  Returns false on a policy drop.  Only valid when empty().
  bool admit_cut_through(const mpls::Packet& packet);

  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return total_; }
  [[nodiscard]] std::size_t size(unsigned cos) const {
    return queues_[cos & 7].size();
  }

  [[nodiscard]] const QueueStats& stats(unsigned cos) const {
    return stats_[cos & 7];
  }
  [[nodiscard]] QueueStats total_stats() const;

  [[nodiscard]] const QosConfig& config() const noexcept { return config_; }

  /// Effective CoS used for queueing decisions.
  [[nodiscard]] static unsigned effective_cos(
      const mpls::Packet& packet) noexcept;

 private:
  [[nodiscard]] bool should_drop(unsigned cos);
  [[nodiscard]] std::optional<unsigned> pick_queue();

  QosConfig config_;
  std::array<FixedRing<PacketHandle>, 8> queues_;
  std::array<QueueStats, 8> stats_;
  std::size_t total_ = 0;
  // WRR state.
  unsigned wrr_cursor_ = 7;
  unsigned wrr_credit_ = 0;
  std::mt19937_64 red_rng_;
};

}  // namespace empls::net
