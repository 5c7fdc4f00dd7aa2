// Partition-correctness suite for the multi-domain event runtime
// (net/domain.hpp): block node assignment, boundary-link rebinding and
// ring accounting, the conservative-lookahead value, refusal paths that
// must leave the network untouched, first-event routing, and exact
// (bit-identical) agreement between the deterministic merge and the
// unpartitioned simulator.  Also pins the sim-counter metrics snapshot
// (clamped schedules) and what the summary fingerprint omits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/scenario_runner.hpp"
#include "net/domain.hpp"
#include "net/network.hpp"
#include "net/scenario.hpp"
#include "obs/metrics.hpp"

namespace empls::net {
namespace {

/// Forwards every packet that did not arrive on `out` back out of `out`
/// — a one-directional relay for line topologies.
class RelayNode : public Node {
 public:
  RelayNode(std::string name, mpls::InterfaceId out)
      : Node(std::move(name)), out_(out) {}
  void receive(PacketHandle packet, mpls::InterfaceId in_if) override {
    if (in_if != out_) {
      send(std::move(packet), out_);
    }
  }

 private:
  mpls::InterfaceId out_;
};

/// Records every arrival with its simulation time.
class SinkNode : public Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(PacketHandle packet, mpls::InterfaceId in_if) override {
    (void)in_if;
    times.push_back(network()->now());
    bytes.push_back(packet->payload.size());
  }
  std::vector<SimTime> times;
  std::vector<std::size_t> bytes;
};

mpls::Packet sized_packet(std::size_t payload) {
  mpls::Packet p;
  p.payload.assign(payload, 0);
  return p;
}

/// A 4-node line A-B-C-D; B→C is the only domain boundary under the
/// block map {A,B}∪{C,D}.  Relays forward toward D; D is the sink.
struct LineRig {
  Network net;
  NodeId a, b, c, d;
  LineRig(SimTime ab_delay, SimTime bc_delay, SimTime cd_delay,
          double bw = 1e6) {
    a = net.add_node(std::make_unique<RelayNode>("A", 0));
    b = net.add_node(std::make_unique<RelayNode>("B", 1));
    c = net.add_node(std::make_unique<RelayNode>("C", 1));
    d = net.add_node(std::make_unique<SinkNode>("D"));
    net.connect(a, b, bw, ab_delay);  // A:0 <-> B:0
    net.connect(b, c, bw, bc_delay);  // B:1 <-> C:0
    net.connect(c, d, bw, cd_delay);  // C:1 <-> D:0
  }
  SinkNode& sink() { return net.node_as<SinkNode>(d); }
};

TEST(DomainPartition, BlockMapSplitsNodesContiguously) {
  LineRig rig(1e-3, 1e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  const DomainRuntime* drt = rig.net.domain_runtime();
  ASSERT_NE(drt, nullptr);
  EXPECT_EQ(drt->domain_count(), 2u);
  EXPECT_EQ(drt->mode(), SyncMode::kDeterministic);
  EXPECT_EQ(drt->domain_of(rig.a), 0u);
  EXPECT_EQ(drt->domain_of(rig.b), 0u);
  EXPECT_EQ(drt->domain_of(rig.c), 1u);
  EXPECT_EQ(drt->domain_of(rig.d), 1u);
}

TEST(DomainPartition, ExactlyBoundaryLinksGetHandoffHooks) {
  LineRig rig(1e-3, 1e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  const DomainRuntime* drt = rig.net.domain_runtime();
  std::size_t hooked = 0;
  for (NodeId id = 0; id < rig.net.num_nodes(); ++id) {
    for (const auto& adj : rig.net.adjacency(id)) {
      const bool cross = drt->domain_of(id) != drt->domain_of(adj.neighbor);
      EXPECT_EQ(rig.net.link_from(id, adj.port).has_handoff_hook(), cross)
          << "link " << id << "->" << adj.neighbor;
      hooked += cross ? 1 : 0;
    }
  }
  // Both directions of the B-C connection, nothing else.
  EXPECT_EQ(hooked, 2u);
  EXPECT_EQ(drt->boundary_link_count(), 2u);
}

TEST(DomainPartition, RingAccountingMatchesBoundaryTopology) {
  LineRig rig(1e-3, 1e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  const DomainRuntime* drt = rig.net.domain_runtime();
  EXPECT_TRUE(drt->has_ring(0, 1));
  EXPECT_TRUE(drt->has_ring(1, 0));
  EXPECT_FALSE(drt->has_ring(0, 0));
  EXPECT_FALSE(drt->has_ring(1, 1));
  EXPECT_EQ(drt->boundary_links(0, 1), 1u);  // B->C
  EXPECT_EQ(drt->boundary_links(1, 0), 1u);  // C->B
  EXPECT_EQ(drt->boundary_links(0, 0), 0u);
}

TEST(DomainPartition, LookaheadIsMinimumBoundaryDelay) {
  // Intra-domain delays (5ms, 1ms) must not shrink W; only the 2ms
  // boundary crossing counts.
  LineRig rig(5e-3, 2e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kFree));
  EXPECT_DOUBLE_EQ(rig.net.domain_runtime()->lookahead(), 2e-3);
}

TEST(DomainPartition, DisconnectedDomainsHaveInfiniteLookahead) {
  Network net;
  const NodeId a = net.add_node(std::make_unique<RelayNode>("A", 0));
  const NodeId b = net.add_node(std::make_unique<SinkNode>("B"));
  const NodeId c = net.add_node(std::make_unique<RelayNode>("C", 0));
  const NodeId d = net.add_node(std::make_unique<SinkNode>("D"));
  net.connect(a, b, 1e6, 1e-3);
  net.connect(c, d, 1e6, 1e-3);
  ASSERT_TRUE(net.partition(2, SyncMode::kFree));
  const DomainRuntime* drt = net.domain_runtime();
  EXPECT_EQ(drt->boundary_link_count(), 0u);
  EXPECT_TRUE(std::isinf(drt->lookahead()));
  // Fully independent domains still run to completion.
  net.inject(a, sized_packet(64));
  net.inject(c, sized_packet(64));
  net.run();
  EXPECT_EQ(net.node_as<SinkNode>(b).times.size(), 1u);
  EXPECT_EQ(net.node_as<SinkNode>(d).times.size(), 1u);
}

TEST(DomainPartition, RefusalsLeaveTheNetworkUnpartitioned) {
  {  // Fewer than 2 domains.
    LineRig rig(1e-3, 1e-3, 1e-3);
    EXPECT_FALSE(rig.net.partition(1, SyncMode::kDeterministic));
    EXPECT_EQ(rig.net.domain_runtime(), nullptr);
  }
  {  // Already partitioned.
    LineRig rig(1e-3, 1e-3, 1e-3);
    ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
    EXPECT_FALSE(rig.net.partition(2, SyncMode::kDeterministic));
    EXPECT_NE(rig.net.domain_runtime(), nullptr);
  }
  {  // Explicit map with an out-of-range domain id.
    LineRig rig(1e-3, 1e-3, 1e-3);
    EXPECT_FALSE(
        rig.net.partition({0, 0, 2, 1}, 2, SyncMode::kDeterministic));
    EXPECT_EQ(rig.net.domain_runtime(), nullptr);
  }
  {  // Map sized for the wrong node count.
    LineRig rig(1e-3, 1e-3, 1e-3);
    EXPECT_FALSE(rig.net.partition({0, 0, 1}, 2, SyncMode::kDeterministic));
    EXPECT_EQ(rig.net.domain_runtime(), nullptr);
  }
}

TEST(DomainPartition, FreeModeRefusesZeroLookaheadBoundary) {
  // A zero-delay boundary link gives W = 0: free-running windows could
  // never admit an event.  The refusal must happen before any link is
  // rebound, so a deterministic partition afterwards still works.
  LineRig rig(1e-3, 0.0, 1e-3);
  EXPECT_FALSE(rig.net.partition(2, SyncMode::kFree));
  EXPECT_EQ(rig.net.domain_runtime(), nullptr);
  EXPECT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  rig.net.inject(rig.a, sized_packet(64));
  rig.net.run();
  EXPECT_EQ(rig.sink().times.size(), 1u);
}

TEST(DomainPartition, EventsForRoutesToTheOwningDomainQueue) {
  LineRig rig(1e-3, 1e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  DomainRuntime* drt = rig.net.domain_runtime();
  // Domain 0 aliases the network's own queue and pool.
  EXPECT_EQ(&rig.net.events_for(rig.a), &drt->events(0));
  EXPECT_EQ(&rig.net.events_for(rig.b), &drt->events(0));
  EXPECT_EQ(&rig.net.events_for(rig.c), &drt->events(1));
  EXPECT_EQ(&rig.net.events_for(rig.d), &drt->events(1));
  EXPECT_NE(&drt->events(0), &drt->events(1));
  EXPECT_EQ(&rig.net.pool_for(rig.c), &drt->pool(1));
}

TEST(DomainPartition, DeterministicMergeMatchesUnpartitionedExactly) {
  const int kPackets = 8;
  auto drive = [&](LineRig& rig) {
    for (int i = 0; i < kPackets; ++i) {
      rig.net.inject(rig.a, sized_packet(64 + 8 * i));
    }
    rig.net.run();
  };

  LineRig golden(1e-3, 2e-3, 3e-3);
  drive(golden);

  LineRig part(1e-3, 2e-3, 3e-3);
  ASSERT_TRUE(part.net.partition(2, SyncMode::kDeterministic));
  drive(part);

  ASSERT_EQ(golden.sink().times.size(),
            static_cast<std::size_t>(kPackets));
  ASSERT_EQ(part.sink().times, golden.sink().times);  // bit-identical
  EXPECT_EQ(part.sink().bytes, golden.sink().bytes);
  EXPECT_EQ(part.net.delivered_count(), golden.net.delivered_count());

  // Every packet crossed the B->C boundary exactly once, through the
  // ring, with nothing left in flight.
  const DomainRuntime* drt = part.net.domain_runtime();
  std::uint64_t out = 0;
  std::uint64_t in = 0;
  for (std::uint32_t dom = 0; dom < drt->domain_count(); ++dom) {
    out += drt->counters(dom).handoffs_out;
    in += drt->counters(dom).handoffs_in;
  }
  EXPECT_EQ(out, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(in, static_cast<std::uint64_t>(kPackets));
}

TEST(DomainPartition, FreeRunningDeliversTheSameArrivals) {
  const int kPackets = 8;
  auto drive = [&](LineRig& rig) {
    for (int i = 0; i < kPackets; ++i) {
      rig.net.inject(rig.a, sized_packet(64 + 8 * i));
    }
    rig.net.run();
  };

  LineRig golden(1e-3, 2e-3, 3e-3);
  drive(golden);

  LineRig part(1e-3, 2e-3, 3e-3);
  ASSERT_TRUE(part.net.partition(2, SyncMode::kFree));
  drive(part);

  // The sink's domain executes sequentially, so the arrival sequence —
  // not just the multiset — must match the golden run.
  EXPECT_EQ(part.sink().times, golden.sink().times);
  EXPECT_EQ(part.net.delivered_count(), golden.net.delivered_count());
  const DomainRuntime* drt = part.net.domain_runtime();
  std::uint64_t windows = 0;
  for (std::uint32_t dom = 0; dom < drt->domain_count(); ++dom) {
    windows += drt->counters(dom).windows;
  }
  EXPECT_GT(windows, 0u);
}

TEST(DomainPartition, SteadyStateCrossingsDoNotGrowThePools) {
  // Inject in two batches: the pool high-water after the first batch
  // must absorb the second (same offered load ⇒ no new allocations).
  LineRig rig(1e-3, 1e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  for (int i = 0; i < 4; ++i) {
    rig.net.inject(rig.a, sized_packet(64));
  }
  rig.net.run();
  const auto first = rig.net.domain_runtime()->pool_stats().high_water;
  for (int i = 0; i < 4; ++i) {
    rig.net.inject(rig.a, sized_packet(64));
  }
  rig.net.run();
  EXPECT_EQ(rig.net.domain_runtime()->pool_stats().high_water, first);
  EXPECT_EQ(rig.sink().times.size(), 8u);
}

// --- observability: trace golden & phase profiler ---------------------

// The hop tracer promises deterministic serialization: only sim-times,
// deterministic trace ids, and topology indices appear in the output.
// Under the deterministic merge the partitioned run executes the same
// events in the same global order as the unpartitioned simulator, so
// the merged multi-domain trace must be byte-identical to the golden
// single-queue trace — not merely equivalent.
TEST(DomainPartition, DeterministicTraceMatchesUnpartitionedByteForByte) {
  const char* kBody = R"(
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 2ms
lsp 10.1.0.0/16 A B C
flow cbr 1 A 10.1.0.5 interval=7ms stop=0.0699
flow cbr 2 A 10.1.0.9 size=300 interval=11ms stop=0.0659
run 0.2
)";
  auto run_traced = [&](const std::string& prefix,
                        const std::string& path) {
    const auto result = core::ScenarioRunner::run_text(
        prefix + "trace " + path + "\n" + kBody);
    EXPECT_TRUE(
        std::holds_alternative<core::ScenarioRunner::Report>(result))
        << std::get<ScenarioError>(result).message;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };

  const std::string golden = run_traced("", "dp_trace_golden.json");
  const std::string merged = run_traced("domains 2\nsync deterministic\n",
                                        "dp_trace_merged.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_NE(golden.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(merged, golden);
}

// Free-running workers bracket every loop phase with the same clock
// reads that bound wall_ns, so dispatch + search + handoff + barrier
// must tile the worker's wall time: anything the profiler cannot
// attribute is loop bookkeeping between adjacent timestamps.  The
// acceptance bar is >= 95% attribution on every domain of an 8-way
// free-mode run.
TEST(DomainPartition, FreeModeProfilerAttributesTheWallTime) {
  Network net;
  constexpr std::uint32_t kDomains = 8;
  constexpr NodeId kNodes = 16;  // two per domain under the block map
  std::vector<NodeId> chain;
  for (NodeId i = 0; i < kNodes - 1; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    chain.push_back(
        net.add_node(std::make_unique<RelayNode>(name, i == 0 ? 0 : 1)));
  }
  chain.push_back(net.add_node(std::make_unique<SinkNode>("S")));
  for (NodeId i = 0; i + 1 < kNodes; ++i) {
    net.connect(chain[i], chain[i + 1], 1e6, 1e-3);
  }
  ASSERT_TRUE(net.partition(kDomains, SyncMode::kFree));
  DomainRuntime* drt = net.domain_runtime();
  drt->enable_profiling(true);
  ASSERT_TRUE(drt->profiling());

  const int kPackets = 64;
  for (int i = 0; i < kPackets; ++i) {
    net.inject(chain[0], sized_packet(64 + (i % 7) * 16));
  }
  net.run();
  ASSERT_EQ(net.node_as<SinkNode>(chain.back()).times.size(),
            static_cast<std::size_t>(kPackets));

  for (std::uint32_t d = 0; d < kDomains; ++d) {
    const DomainRuntime::PhaseProfile& p = drt->profile(d);
    ASSERT_GT(p.wall_ns, 0u) << "domain " << d;
    const std::uint64_t attributed =
        p.dispatch_ns + p.search_ns + p.handoff_ns + p.barrier_ns;
    EXPECT_GE(static_cast<double>(attributed),
              0.95 * static_cast<double>(p.wall_ns))
        << "domain " << d << ": dispatch=" << p.dispatch_ns
        << " search=" << p.search_ns << " handoff=" << p.handoff_ns
        << " barrier=" << p.barrier_ns << " wall=" << p.wall_ns;
  }

  // The profile surfaces as empls_domain_profile_* counters plus a
  // utilization gauge, one label set per domain, only while armed.
  obs::MetricsRegistry reg;
  net.export_metrics(reg);
  const auto* wall3 =
      reg.find_counter("empls_domain_profile_wall_ns_total", "domain=\"3\"");
  ASSERT_NE(wall3, nullptr);
  EXPECT_EQ(wall3->value(), drt->profile(3).wall_ns);
  const auto* util0 =
      reg.find_gauge("empls_domain_window_utilization", "domain=\"0\"");
  ASSERT_NE(util0, nullptr);
  EXPECT_GE(util0->value(), 0.0);
  EXPECT_LE(util0->value(), 1.0);

  drt->enable_profiling(false);
  obs::MetricsRegistry off;
  net.export_metrics(off);
  EXPECT_EQ(off.find_counter("empls_domain_profile_wall_ns_total",
                             "domain=\"3\""),
            nullptr);
}

// --- satellite: sim-counter snapshot consolidation --------------------

TEST(SimMetrics, ClampAndRebuildCountersExportedNotFingerprinted) {
  Network net;
  const NodeId a = net.add_node(std::make_unique<RelayNode>("A", 0));
  const NodeId b = net.add_node(std::make_unique<SinkNode>("B"));
  net.connect(a, b, 1e6, 1e-3);
  // Schedule into the past to force a clamp.
  net.events().schedule_at(-1.0, [] {});
  net.run();
  net.inject(a, sized_packet(64));
  net.run();

  obs::MetricsRegistry reg;
  net.export_metrics(reg);
  const auto* clamped = reg.find_counter("empls_sim_clamped_schedules_total");
  ASSERT_NE(clamped, nullptr);
  EXPECT_GE(clamped->value(), 1u);
  const SimStats sim = net.sim_stats();
  EXPECT_EQ(sim.clamped_schedules, clamped->value());
  // The always-zero rebuild count stays out of the summary fingerprint.
  EXPECT_EQ(sim.summary().find("rebuilds"), std::string::npos);
  EXPECT_NE(sim.summary().find("clamped="), std::string::npos);
}

TEST(SimMetrics, PerDomainCountersExportedUnderPartition) {
  LineRig rig(1e-3, 1e-3, 1e-3);
  ASSERT_TRUE(rig.net.partition(2, SyncMode::kDeterministic));
  rig.net.inject(rig.a, sized_packet(64));
  rig.net.run();
  obs::MetricsRegistry reg;
  rig.net.export_metrics(reg);
  const auto* count = reg.find_gauge("empls_domain_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value(), 2.0);
  const auto* out0 =
      reg.find_counter("empls_domain_handoffs_out_total", "domain=\"0\"");
  const auto* in1 =
      reg.find_counter("empls_domain_handoffs_in_total", "domain=\"1\"");
  ASSERT_NE(out0, nullptr);
  ASSERT_NE(in1, nullptr);
  EXPECT_EQ(out0->value(), 1u);
  EXPECT_EQ(in1->value(), 1u);
}

}  // namespace
}  // namespace empls::net
