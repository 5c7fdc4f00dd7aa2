#include "reference.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace empls::bench::e2e {

namespace {

constexpr int kHeapOps = 4000;
constexpr int kScans = 200;
constexpr std::size_t kHeapSize = 4096;
constexpr std::size_t kCounters = 65536;
constexpr std::size_t kKeys = 3072;

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

}  // namespace

/// The reference's state.  It persists across samples.  A sample runs
/// on whatever the simulator left in the caches, as the simulator's own
/// next step does: the random counter increments then miss in the
/// nearest caches about as often as the simulator's accesses to its
/// tables do, which is what lets the reference follow a host whose
/// caches and memory are shared with other tenants.
struct Reference::State {
  using Event = std::pair<double, std::uint32_t>;

  State() {
    for (std::uint32_t i = 0; i < kHeapSize; ++i) {
      heap.emplace_back(i * 1e-6, i);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (std::size_t i = 0; i < kKeys; ++i) {
      keys[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
  }

  /// Nanoseconds one sample took.
  std::int64_t run() {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kHeapOps; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      Event& e = heap.back();
      const std::uint64_t r = lcg(x);
      ++counters[(e.second * 2654435761u + (r >> 40)) % kCounters];
      e.first += static_cast<double>(r >> 44) * 1e-9;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    for (int i = 0; i < kScans; ++i) {
      const std::uint32_t want = keys[(lcg(x) >> 33) % kKeys];
      for (std::size_t j = 0; j < kKeys; ++j) {
        if (keys[j] == want) {
          sink += j;
          break;
        }
      }
    }
    return now_ns() - t0;
  }

  std::vector<Event> heap;  // a min-heap on time
  std::vector<std::uint64_t> counters = std::vector<std::uint64_t>(kCounters);
  std::array<std::uint32_t, kKeys> keys{};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;  // keeps the scans observable
};

Reference::Reference() : state_(std::make_unique<State>()) {
  state_->run();  // warm-up: the first sample pays for page faults
}
Reference::~Reference() = default;

std::int64_t Reference::sample_ns() {
  return state_->run();
}

}  // namespace empls::bench::e2e
