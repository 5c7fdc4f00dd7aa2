// The embedded router's flow cache: direct-mapped (level, key) →
// resolved label-pair bindings, validated by the engine's epoch
// counter.  The contract under test is absolute transparency — a run
// with the cache on must produce bit-identical books to the same run
// with the cache off, including modelled engine cycles and latency
// percentiles, while serving the steady-state traffic mostly from the
// cache.  Epoch invalidation is exercised the hard way: an injected
// information-base corruption and the subsequent resync reprogram
// mid-stream, which must flip cached entries stale at exactly the same
// packet boundaries as the uncached engine changes behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/embedded_router.hpp"
#include "net/fault_injector.hpp"
#include "net/ldp.hpp"
#include "net/network.hpp"
#include "net/stats.hpp"
#include "net/traffic.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/sharded_engine.hpp"

namespace empls::core {
namespace {

mpls::Prefix pfx(const char* t) { return *mpls::Prefix::parse(t); }

/// Everything two runs must agree on to count as "bit-identical".
struct Books {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double latency_mean = 0;
  double latency_p99 = 0;
  double jitter = 0;
  // Per router: received, forwarded, delivered_local, discarded, cycles.
  std::vector<std::vector<std::uint64_t>> routers;

  bool operator==(const Books&) const = default;
};

struct RunResult {
  Books books;
  net::FlowCacheStats cache;  // aggregated over all routers
  bool cache_enabled = false;
  unsigned corrupt_resynced = 0;
};

/// A line of `n` linear-engine routers, one CBR flow crossing it end to
/// end; when `corrupt_at` > 0, the transit router's information base is
/// garbled at that time and resynced `corrupt_resync` later.
RunResult run_line(std::size_t cache_entries, int n, double stop_s,
                   double corrupt_at = 0, double corrupt_resync = 0) {
  net::Network net;
  net::ControlPlane cp(net);
  net::FlowStats stats;

  std::vector<net::NodeId> ids;
  std::vector<EmbeddedRouter*> routers;
  for (int i = 0; i < n; ++i) {
    RouterConfig cfg;
    cfg.type = (i == 0 || i == n - 1) ? hw::RouterType::kLer
                                      : hw::RouterType::kLsr;
    cfg.flow_cache_entries = cache_entries;
    std::string name = "R";
    name += std::to_string(i);
    auto r = std::make_unique<EmbeddedRouter>(
        name, std::make_unique<sw::LinearEngine>(), cfg);
    routers.push_back(r.get());
    ids.push_back(net.add_node(std::move(r)));
    cp.register_router(ids.back(), &routers.back()->routing());
  }
  for (int i = 0; i + 1 < n; ++i) {
    net.connect(ids[i], ids[i + 1], 100e6, 1e-3);
  }
  net.set_delivery_handler([&](net::NodeId, const mpls::Packet& p) {
    stats.on_delivered(p, net.now());
  });

  EXPECT_TRUE(cp.establish_lsp(ids, pfx("10.1.0.0/16")).has_value());

  net::FlowSpec spec{1, ids.front(), mpls::Ipv4Address{1},
                     *mpls::Ipv4Address::parse("10.1.0.5"), 6, 100, 0.0,
                     stop_s};
  net::CbrSource flow(net, spec, &stats, 1e-3);
  flow.start();

  net::FaultInjector injector(net, cp);
  if (corrupt_at > 0) {
    injector.inject(net::FaultSpec{net::FaultKind::kCorrupt, corrupt_at,
                                   ids[n / 2], 0, corrupt_resync,
                                   /*salt=*/1});
  }
  net.run();

  RunResult result;
  const auto& f = stats.flow(1);
  result.books.sent = f.sent;
  result.books.delivered = f.delivered;
  result.books.latency_mean = f.latency.mean();
  result.books.latency_p99 = f.latency.percentile(0.99);
  result.books.jitter = f.jitter;
  for (auto* r : routers) {
    const auto& s = r->stats();
    result.books.routers.push_back({s.received, s.forwarded,
                                    s.delivered_local, s.discarded,
                                    s.engine_cycles});
    result.cache.hits += r->cache_stats().hits;
    result.cache.misses += r->cache_stats().misses;
    result.cache.invalidations += r->cache_stats().invalidations;
    result.cache.insertions += r->cache_stats().insertions;
    result.cache_enabled = result.cache_enabled || r->flow_cache_enabled();
  }
  if (!injector.records().empty()) {
    result.corrupt_resynced = injector.records().front().resynced;
  }
  return result;
}

// The cache only arms when it is configured AND the engine exposes a
// cacheable search/tail decomposition; the RTL-backed and sharded
// engines must see every packet and silently run uncached.
TEST(FlowCache, ArmsOnlyForCacheableEngines) {
  RouterConfig cfg;
  cfg.flow_cache_entries = 64;
  EmbeddedRouter linear("l", std::make_unique<sw::LinearEngine>(), cfg);
  EXPECT_TRUE(linear.flow_cache_enabled());
  EmbeddedRouter hw_r("h", std::make_unique<sw::HwEngine>(), cfg);
  EXPECT_FALSE(hw_r.flow_cache_enabled()) << "RTL model sees every packet";
  EmbeddedRouter sharded("p", std::make_unique<sw::ShardedEngine>(2), cfg);
  EXPECT_FALSE(sharded.flow_cache_enabled())
      << "makespan model would change if hits skipped the batch";

  RouterConfig off;
  off.flow_cache_entries = 0;
  EmbeddedRouter none("n", std::make_unique<sw::LinearEngine>(), off);
  EXPECT_FALSE(none.flow_cache_enabled());
}

// Steady state on the 8-node line: one flow, one (level, key) per
// router, so after the first packet warms each cache almost every probe
// hits — while the books stay exactly those of the uncached run.
TEST(FlowCache, SteadyStateHitsWithBitIdenticalBooks) {
  const auto uncached = run_line(0, 8, 0.3);
  const auto cached = run_line(1024, 8, 0.3);

  EXPECT_FALSE(uncached.cache_enabled);
  EXPECT_TRUE(cached.cache_enabled);
  EXPECT_EQ(cached.books, uncached.books);
  EXPECT_GT(cached.books.delivered, 250u);

  EXPECT_EQ(uncached.cache.hits + uncached.cache.misses, 0u);
  EXPECT_GT(cached.cache.insertions, 0u);
  EXPECT_GE(cached.cache.hit_rate(), 0.90)
      << cached.cache.summary();
}

// The acceptance property for epoch invalidation: a corruption garbles
// the transit router's information base mid-stream and the resync audit
// reprograms it 50 ms later.  Both events bump the engine epoch, so the
// cached run must misroute, drop and recover at exactly the same packet
// boundaries as the uncached run — identical books — while the cache
// registers the stale-entry invalidations.
TEST(FlowCache, EpochInvalidationKeepsCorruptedRunIdentical) {
  const auto uncached = run_line(0, 3, 0.5, 0.1, 0.05);
  const auto cached = run_line(1024, 3, 0.5, 0.1, 0.05);

  EXPECT_EQ(cached.books, uncached.books);
  // The corruption actually bit: deliveries were lost, then recovered.
  EXPECT_LT(cached.books.delivered, cached.books.sent);
  EXPECT_GT(cached.books.delivered, 400u);
  EXPECT_GE(cached.corrupt_resynced, 1u) << "audit repaired nothing";
  // Stale entries were detected by epoch compare, not served.
  EXPECT_GE(cached.cache.invalidations, 1u) << cached.cache.summary();
  EXPECT_GE(cached.cache.hit_rate(), 0.90) << cached.cache.summary();
}

// A reprogram that does NOT change behaviour (rewriting the same
// binding) must still invalidate — correctness over cleverness: the
// cache revalidates against the engine and the books stay identical.
TEST(FlowCache, RewritingTheSameBindingStillInvalidates) {
  net::Network net;
  net::ControlPlane cp(net);
  net::FlowStats stats;
  RouterConfig cfg;
  cfg.type = hw::RouterType::kLer;
  cfg.flow_cache_entries = 64;
  auto owned = std::make_unique<EmbeddedRouter>(
      "A", std::make_unique<sw::LinearEngine>(), cfg);
  auto* router = owned.get();
  const auto a = net.add_node(std::move(owned));
  RouterConfig cfg_b;
  cfg_b.type = hw::RouterType::kLer;
  auto owned_b = std::make_unique<EmbeddedRouter>(
      "B", std::make_unique<sw::LinearEngine>(), cfg_b);
  const auto b = net.add_node(std::move(owned_b));
  cp.register_router(a, &router->routing());
  cp.register_router(
      b, &net.node_as<EmbeddedRouter>(b).routing());
  net.connect(a, b, 100e6, 1e-3);
  net.set_delivery_handler([&](net::NodeId, const mpls::Packet& p) {
    stats.on_delivered(p, net.now());
  });
  ASSERT_TRUE(cp.establish_lsp({a, b}, pfx("10.9.0.0/16")).has_value());

  net::FlowSpec spec{1, a, mpls::Ipv4Address{1},
                     *mpls::Ipv4Address::parse("10.9.0.1"), 6, 100, 0.0,
                     0.2};
  net::CbrSource flow(net, spec, &stats, 1e-3);
  flow.start();

  // Mid-stream, rewrite an unrelated binding: epoch moves, behaviour
  // does not.
  net.events().schedule_at(0.1, [&] {
    router->engine().write_pair(
        2, mpls::LabelPair{999, 998, mpls::LabelOp::kSwap});
  });
  net.run();

  EXPECT_EQ(stats.flow(1).delivered, stats.flow(1).sent);
  EXPECT_GE(router->cache_stats().invalidations, 1u)
      << router->cache_stats().summary();
  EXPECT_GE(router->cache_stats().hit_rate(), 0.90)
      << router->cache_stats().summary();
}

}  // namespace
}  // namespace empls::core
