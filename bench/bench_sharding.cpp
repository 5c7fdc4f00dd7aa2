// Shards-vs-throughput sweep for the sharded forwarding plane.
//
// Programs 512 self-mapping level-2 swap entries, then pushes batches of
// labeled packets (256 flows, uniform over the table) through
// LinearEngine and ShardedEngine(N) for N in {1, 2, 4, 8} via
// update_batch.  Throughput is reported two ways:
//
//   * modelled — packets over the summed batch makespans at the paper's
//     50 MHz clock.  A sharded plane's makespan is its slowest shard's
//     cycle sum, so N shards are N parallel datapaths; this is the
//     quantity the sweep gates on (>= 3x at 8 shards vs 1).
//   * wall clock — informational only.  ShardedEngine runs its inner
//     LinearEngine on the caller's thread, so its wall column measures
//     the model's per-packet bookkeeping (the shard hash and the load
//     tally) against the linear row.
//
// Emits sharding_sweep.csv and exits non-zero if the modelled sweep
// fails its checks.
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rtl/clock_model.hpp"
#include "sw/linear_engine.hpp"
#include "sw/sharded_engine.hpp"

using namespace empls;

namespace {

constexpr unsigned kEntries = 512;
constexpr unsigned kFlows = 256;
constexpr std::size_t kBatch = 2048;
constexpr unsigned kRounds = 16;

void program(sw::LabelEngine& engine) {
  engine.clear();
  for (rtl::u32 label = 1; label <= kEntries; ++label) {
    // Self-mapping swaps: the label survives the update, so the same
    // flow keeps hitting the same entry round after round.
    engine.write_pair(2, mpls::LabelPair{label, label, mpls::LabelOp::kSwap});
  }
}

std::vector<mpls::Packet> make_templates() {
  std::mt19937 rng(20050415);  // fixed seed: identical load on every engine
  std::vector<mpls::Packet> packets(kBatch);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    auto& p = packets[i];
    p.flow_id = static_cast<rtl::u32>(i % kFlows);
    p.ip_ttl = 255;
    const rtl::u32 label = 1 + rng() % kEntries;
    p.stack.push(mpls::LabelEntry{label, 0, true, 255});
  }
  return packets;
}

struct RunResult {
  rtl::u64 model_cycles = 0;  // summed batch makespans
  double wall_s = 0;
  rtl::u64 discards = 0;
};

RunResult run(sw::LabelEngine& engine,
              const std::vector<mpls::Packet>& templates) {
  RunResult result;
  std::vector<mpls::Packet> work;
  std::vector<mpls::Packet*> ptrs(templates.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned round = 0; round < kRounds; ++round) {
    work = templates;  // fresh TTLs every round
    for (std::size_t i = 0; i < work.size(); ++i) {
      ptrs[i] = &work[i];
    }
    const auto outcomes = engine.update_batch(ptrs, hw::RouterType::kLsr);
    result.model_cycles += engine.last_batch_makespan_cycles();
    for (const auto& o : outcomes) {
      result.discards += o.discarded ? 1 : 0;
    }
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return result;
}

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

int main() {
  std::printf("== Sharded forwarding plane: shards vs throughput ==\n\n");
  bench::Checks checks;
  const rtl::ClockModel clock;
  const auto templates = make_templates();
  const double total_packets = static_cast<double>(kBatch) * kRounds;

  bench::Table table({"engine", "shards", "packets", "model cycles",
                      "model Mpkt/s @50MHz", "speedup vs 1 shard",
                      "wall ms"});

  // Baseline: the golden single-datapath engine.
  rtl::u64 linear_cycles = 0;
  {
    sw::LinearEngine linear;
    program(linear);
    const auto r = run(linear, templates);
    linear_cycles = r.model_cycles;
    checks.expect_eq("linear: no discards", 0,
                     static_cast<long long>(r.discards));
    table.add_row({"linear", "1", fmt(total_packets, "%.0f"),
                   std::to_string(r.model_cycles),
                   fmt(total_packets / clock.seconds(r.model_cycles) / 1e6),
                   "1.00", fmt(r.wall_s * 1e3)});
  }

  double speedup8 = 0;
  rtl::u64 sharded1_cycles = 0;
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    sw::ShardedEngine engine(shards);
    program(engine);
    const auto r = run(engine, templates);
    if (shards == 1) {
      sharded1_cycles = r.model_cycles;
    }
    const double speedup = static_cast<double>(sharded1_cycles) /
                           static_cast<double>(r.model_cycles);
    if (shards == 8) {
      speedup8 = speedup;
    }
    checks.expect_eq("sharded:" + std::to_string(shards) + ": no discards",
                     0, static_cast<long long>(r.discards));
    table.add_row({"sharded", std::to_string(shards),
                   fmt(total_packets, "%.0f"), std::to_string(r.model_cycles),
                   fmt(total_packets / clock.seconds(r.model_cycles) / 1e6),
                   fmt(speedup), fmt(r.wall_s * 1e3)});
  }

  table.print();
  table.write_csv("sharding_sweep.csv");
  std::printf("\n");

  // One shard serialises everything, so its makespan must equal the
  // single-datapath baseline exactly (the inner engine IS a LinearEngine).
  checks.expect_eq("sharded:1 modelled cycles == linear",
                   static_cast<long long>(linear_cycles),
                   static_cast<long long>(sharded1_cycles));
  checks.expect_true("modelled speedup at 8 shards >= 3x", speedup8 >= 3.0);
  return checks.exit_code();
}
