// Zero heap allocations per forwarded packet (DESIGN.md §8).  This
// binary replaces the global operator new/delete with counting
// versions, warms an 8-router LER–LSR⁶–LER line on library defaults
// (linear engine, wire validation on) and then asserts
// that thousands more packets cross it without a single allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/embedded_router.hpp"
#include "net/network.hpp"
#include "net/signaling.hpp"
#include "net/traffic.hpp"
#include "sw/linear_engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) {
    return p;
  }
  throw std::bad_alloc();
}

/// Allocations made while `fn` runs.
template <typename F>
std::uint64_t allocations_during(F&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace empls {
namespace {

TEST(ZeroAlloc, CounterSeesAllocations) {
  const std::uint64_t n = allocations_during([] {
    auto p = std::make_unique<std::vector<int>>(100);
    ASSERT_EQ(p->size(), 100u);
  });
  EXPECT_EQ(n, 2u) << "the vector object and its buffer";
}

/// Builds the 8-router line on library defaults, starts four CBR flows
/// `phase_step` apart, warms it for 0.2 s and runs 0.2 s more; returns
/// the packets delivered and the heap allocations made in that second
/// interval.
std::pair<std::uint64_t, std::uint64_t> forward_on_warmed_line(
    double phase_step) {
  constexpr int kRouters = 8;
  net::Network net;
  net::ControlPlane cp(net);
  std::vector<net::NodeId> path;
  for (int i = 0; i < kRouters; ++i) {
    core::RouterConfig cfg;  // defaults: validate_wire on, no flow cache
    cfg.type = (i == 0 || i == kRouters - 1) ? hw::RouterType::kLer
                                             : hw::RouterType::kLsr;
    std::string name = "R";
    name += std::to_string(i);
    auto router = std::make_unique<core::EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    auto* raw = router.get();
    path.push_back(net.add_node(std::move(router)));
    cp.register_router(path.back(), &raw->routing());
  }
  for (int i = 0; i + 1 < kRouters; ++i) {
    net.connect(path[i], path[i + 1], 1e9, 100e-6);
  }
  EXPECT_TRUE(cp.establish_lsp(path, *mpls::Prefix::parse("10.1.0.0/16")));

  std::vector<std::unique_ptr<net::CbrSource>> sources;
  for (std::uint32_t flow = 1; flow <= 4; ++flow) {
    const net::FlowSpec spec{flow, path.front(), {},
                             *mpls::Ipv4Address::parse("10.1.0.9"),
                             static_cast<std::uint8_t>(flow), 256,
                             phase_step * (flow - 1), 1.0};
    sources.push_back(
        std::make_unique<net::CbrSource>(net, spec, nullptr, 100e-6));
    sources.back()->start();
  }

  net.run_until(0.2);  // warm-up: pool, slab, engine queue ring fill
  const std::uint64_t delivered0 = net.delivered_count();
  const std::uint64_t n = allocations_during([&] { net.run_until(0.4); });
  return {net.delivered_count() - delivered0, n};
}

TEST(ZeroAlloc, WarmedLineForwardsWithoutAllocating) {
  // Flows 25 us apart in phase take turns at the ingress engine.
  const auto [delivered, n] = forward_on_warmed_line(25e-6);
  EXPECT_GE(delivered, 7000u);
  EXPECT_EQ(n, 0u) << "heap allocations over " << delivered
                   << " forwarded packets";
}

TEST(ZeroAlloc, EngineBacklogQueuesWithoutAllocating) {
  // Flows in phase reach the ingress engine together, so three packets
  // of every four wait in its queue: a ring allocated at its capacity
  // when the first packet waits.
  const auto [delivered, n] = forward_on_warmed_line(0.0);
  EXPECT_GE(delivered, 7000u);
  EXPECT_EQ(n, 0u) << "heap allocations over " << delivered
                   << " forwarded packets, most of them queued";
}

TEST(ZeroAlloc, LinearEngineWritesWithinItsReservedLanes) {
  // Construction sizes the pairs and the padded key lanes at capacity:
  // filling a level, clearing it and refilling it allocate nothing.
  sw::LinearEngine engine(100);
  int accepted = 0;
  const std::uint64_t n = allocations_during([&] {
    for (int round = 0; round < 2; ++round) {
      for (std::uint32_t i = 0; i <= 100; ++i) {  // the 101st is refused
        accepted += engine.write_pair(2, mpls::LabelPair{16 + i, 100 + i,
                                                         mpls::LabelOp::kSwap})
                        ? 1
                        : 0;
      }
      engine.clear();
    }
  });
  EXPECT_EQ(accepted, 200);
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace empls
