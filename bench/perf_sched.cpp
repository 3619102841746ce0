// P10 — the exec scheduler on skewed workloads: the guided cursor
// (exec/parallel.hpp) on (a) a synthetic Zipf-cost loop and (b) a fault
// campaign engineered so almost all of the work hides in a handful of
// undetectable faults.
//
// Both workloads place their expensive items *contiguously at the tail
// of the index space*, the adversarial case for a cursor handing out
// fixed ~n/(4*width) chunks: one worker would own the whole heavy block
// after its peers drain the cheap chunks and idle. The guided cursor's
// claims shrink to single items by the time the cursor reaches the
// tail, so the heavy items spread over every worker and the critical
// path collapses from ~(heavy block) to ~(heavy block / width).
//
// CI (bench-smoke) archives this binary's JSON as BENCH_sched.json and
// gates `BM_SkewedCampaign/threads:1 / BM_SkewedCampaign/threads:4 >=
// 2.0` via tools/bench_diff.py --require-speedup. Results of every
// parallel run are asserted identical to the serial ones — a schedule
// that changed a value would make the numbers meaningless.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "sim/fault.hpp"
#include "sim/stimulus.hpp"

namespace {

// ---- (a) synthetic Zipf-skewed costs ------------------------------------

// Deterministic spin work: splitmix64 rounds, opaque to the optimizer.
std::uint64_t spin(std::uint64_t rounds) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    benchmark::DoNotOptimize(z);
  }
  return x;
}

constexpr std::size_t kZipfItems = 512;

// cost(i) ~ 1/rank^1.1 with rank = n - i: the heaviest items sit at the
// *tail* of the index space, i.e. inside the last chunk of a fixed
// ~n/(4*width) split. The 32 tail items carry ~63% of the total work;
// the single heaviest ~21%.
std::uint64_t zipf_rounds(std::size_t i) {
  const double rank = static_cast<double>(kZipfItems - i);
  const double cost = 40000.0 / std::pow(rank, 1.1);
  return static_cast<std::uint64_t>(cost) + 4;
}

void BM_SchedZipf(benchmark::State& state) {
  const lv::exec::ParallelOptions opt{
      .threads = static_cast<std::size_t>(state.range(0))};
  // Same inputs → every width must produce the serial loop's slots.
  const auto expect = lv::exec::parallel_map<std::uint64_t>(
      kZipfItems, [](std::size_t i) { return spin(zipf_rounds(i)); },
      {.threads = 1});
  for (auto _ : state) {
    const auto out = lv::exec::parallel_map<std::uint64_t>(
        kZipfItems, [](std::size_t i) { return spin(zipf_rounds(i)); },
        opt);
    if (out != expect) {
      state.SkipWithError("schedule changed the results");
      return;
    }
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kZipfItems; ++i) total += zipf_rounds(i);
  state.counters["spin_rounds"] = static_cast<double>(total);
}
BENCHMARK(BM_SchedZipf)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---- (b) skewed fault campaign -------------------------------------------

// A netlist whose fault population is maximally skewed: a live
// ripple-carry adder (every fault observable, detected within a few
// random vectors — cheap) plus a masked cone built *last*, whose nets
// feed a primary output only through AND-with-constant-0. Both stuck-at
// polarities of every cone net are undetectable, so each costs the full
// vector set — the scalar kernel's worst case, ~100x a leaf fault.
//
// Construction pins the fault-list layout:
//   * faults enumerate in net-creation order, two per net, so the cone's
//     faults occupy the tail of the campaign;
//   * pad inverters (observable, cheap) align the total fault count to a
//     multiple of 4*width(=16) with the cone block no wider than
//     total/16 — at 4 threads the heavy block sits entirely inside what
//     would be the *last* fixed-size chunk.
struct SkewedCampaign {
  lv::circuit::Netlist nl;
  std::vector<std::uint64_t> vectors;
};

SkewedCampaign build_skewed_campaign() {
  SkewedCampaign c;
  const auto ports = lv::circuit::build_ripple_carry_adder(c.nl, 24);
  const std::size_t live = lv::sim::enumerate_faults(c.nl).size();

  constexpr std::size_t kBlock = 16;  // cone faults: 2*(6 chain + 2) nets
  // Total faults: next multiple of 16 fitting live + cone, with the last
  // chunk (total/16) at least as wide as the cone block.
  std::size_t total = ((live + kBlock + 15) / 16) * 16;
  while (total / 16 < kBlock) total += 16;
  const std::size_t pads = (total - kBlock - live) / 2;  // 2 faults per INV

  // Observable pad chain (cheap faults) — built before the cone so the
  // cone stays at the tail of the fault list.
  auto prev = ports.sum.at(0);
  for (std::size_t p = 0; p < pads; ++p) {
    prev = c.nl.add_gate(lv::circuit::CellKind::inv,
                         "pad" + std::to_string(p), {prev});
  }
  c.nl.mark_output(prev);

  // The masked cone: a 6-XOR chain off the primary inputs, ANDed with a
  // constant 0. Chain nets reach an output only through that AND, so no
  // stuck-at on them (or on the AND's own 0-side) is ever detectable.
  auto chain = c.nl.add_gate(lv::circuit::CellKind::xor2, "cone0",
                             {ports.a.at(0), ports.b.at(0)});
  for (int g = 1; g < 6; ++g) {
    chain = c.nl.add_gate(lv::circuit::CellKind::xor2,
                          "cone" + std::to_string(g),
                          {chain, ports.a.at(static_cast<std::size_t>(g))});
  }
  const auto zero = c.nl.add_gate(lv::circuit::CellKind::tie0, "mask0", {});
  const auto masked = c.nl.add_gate(lv::circuit::CellKind::and2,
                                    "masked", {chain, zero});
  c.nl.mark_output(masked);

  const std::size_t got = lv::sim::enumerate_faults(c.nl).size();
  if (got != total || got % 16 != 0) {
    std::fprintf(stderr,
                 "perf_sched: fault-count alignment broke (%zu != %zu)\n",
                 got, total);
    std::exit(1);
  }
  c.vectors = lv::sim::random_vectors(
      1024, static_cast<int>(c.nl.primary_inputs().size()), 11);
  return c;
}

void BM_SkewedCampaign(benchmark::State& state) {
  static const SkewedCampaign c = build_skewed_campaign();
  // Scalar kernel: per-fault early exit is what skews per-item cost.
  const auto grade = [] {
    return lv::sim::fault_coverage(c.nl, c.vectors,
                                   lv::sim::FaultKernel::scalar);
  };
  lv::exec::set_thread_count(1);
  static const auto serial = grade();
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto r = grade();
    benchmark::DoNotOptimize(r.coverage);
  }
  const auto r = grade();
  lv::exec::set_thread_count(0);
  if (r.first_detections != serial.first_detections) {
    state.SkipWithError("schedule changed the first-detection profile");
    return;
  }
  state.counters["faults"] = static_cast<double>(r.total_faults);
  state.counters["undetected"] = static_cast<double>(
      r.total_faults - r.detected);
}
BENCHMARK(BM_SkewedCampaign)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
