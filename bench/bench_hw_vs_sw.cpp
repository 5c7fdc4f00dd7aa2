// Extension experiment X1: the paper's motivating claim — "MPLS
// performance can be enhanced by executing core tasks in hardware" —
// quantified.  Compares per-update cost of:
//
//   * the modelled 50 MHz hardware (linear engine reporting Table 6
//     cycle costs, converted to time),
//   * the software engines measured by wall clock on this host (the
//     linear scan and the trie's O(1) label tables), and
//   * the cycle-accurate RTL simulation itself (simulator speed, not
//     router speed — reported for completeness).
//
// The packet alternates between two labels bound to each other at
// mid-table positions, so every update hits at a stable depth while the
// stack keeps its shape.
#include <benchmark/benchmark.h>

#include "hw/cycle_model.hpp"
#include "rtl/clock_model.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

using namespace empls;

namespace {

/// Fill level 2 with n self-bound swap pairs, except the mid-table two
/// which are bound to each other (the benchmark ping-pongs on those).
void fill(sw::LabelEngine& engine, rtl::u32 n) {
  const rtl::u32 a = n / 2;
  const rtl::u32 b = n / 2 + 1;
  for (rtl::u32 i = 1; i <= n; ++i) {
    rtl::u32 out = i;
    if (i == a) {
      out = b;
    } else if (i == b) {
      out = a;
    }
    engine.write_pair(2, mpls::LabelPair{i, out, mpls::LabelOp::kSwap});
  }
}

mpls::Packet make_packet(rtl::u32 label) {
  mpls::Packet p;
  p.dst = mpls::Ipv4Address::from_octets(10, 0, 0, 1);
  p.stack.push(mpls::LabelEntry{label, 3, false, 255});
  return p;
}

template <typename Engine>
void update_loop(benchmark::State& state) {
  const auto n = static_cast<rtl::u32>(state.range(0));
  Engine engine;
  fill(engine, n);
  mpls::Packet p = make_packet(n / 2);
  rtl::u64 cycles = 0;
  rtl::u64 updates = 0;
  for (auto _ : state) {
    auto outcome = engine.update(p, 2, hw::RouterType::kLsr);
    benchmark::DoNotOptimize(outcome);
    cycles += outcome.hw_cycles;
    ++updates;
    if (p.stack.empty() || (p.stack.top().ttl < 2)) {
      // TTL exhaustion resets the ping-pong packet.
      p = make_packet(n / 2);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(updates));
  if (cycles > 0) {
    const rtl::ClockModel clock;
    state.counters["modeled_hw_us_per_update"] = benchmark::Counter(
        clock.microseconds(cycles) / static_cast<double>(updates));
    state.counters["modeled_hw_updates_per_s"] = benchmark::Counter(
        static_cast<double>(updates) / clock.seconds(cycles));
  }
}

void BM_SwLinearUpdate(benchmark::State& state) {
  update_loop<sw::LinearEngine>(state);
}
void BM_SwTrieUpdate(benchmark::State& state) {
  update_loop<sw::TrieEngine>(state);
}
void BM_HwRtlSimulation(benchmark::State& state) {
  update_loop<sw::HwEngine>(state);
}

}  // namespace

BENCHMARK(BM_SwLinearUpdate)->Arg(16)->Arg(128)->Arg(1024);
BENCHMARK(BM_SwTrieUpdate)->Arg(16)->Arg(128)->Arg(1024);
BENCHMARK(BM_HwRtlSimulation)->Arg(16)->Arg(128)->Arg(1024);

int main(int argc, char** argv) {
  std::printf(
      "== X1: hardware (modeled @50 MHz) vs software label update ==\n"
      "modeled_hw_* counters give the embedded target's speed; the ns/op\n"
      "column is this host's wall clock (software baselines) or simulator\n"
      "overhead (BM_HwRtlSimulation).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Headline comparison at mid-table hit depth for n=1024.
  const rtl::ClockModel clock;
  const rtl::u64 hw_cycles = hw::update_swap_cycles(512);
  std::printf(
      "\nheadline: modeled hardware swap at hit depth 512 = %llu cycles "
      "= %.2f us -> %.0f updates/s at 50 MHz\n",
      static_cast<unsigned long long>(hw_cycles),
      clock.microseconds(hw_cycles),
      1.0 / clock.seconds(hw_cycles));
  return 0;
}
