// P10 — the exec scheduler on a skewed workload: the guided cursor
// (exec/parallel.hpp) on a synthetic Zipf-cost loop.
//
// The loop places its expensive items *contiguously at the tail of the
// index space*, the adversarial case for a cursor handing out fixed
// ~n/(4*width) chunks: one worker would own the whole heavy block after
// its peers drain the cheap chunks and idle. The guided cursor's claims
// shrink to single items by the time the cursor reaches the tail, so the
// heavy items spread over every worker and the critical path collapses
// from ~(heavy block) to ~(heavy block / width).
//
// CI (bench-smoke) archives this binary's JSON as BENCH_sched.json and
// gates `BM_SchedZipf/threads:1 / BM_SchedZipf/threads:4 >= 2.0` via
// tools/bench_diff.py --require-speedup. Results of every parallel run
// are asserted identical to the serial ones — a schedule that changed a
// value would make the numbers meaningless.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"

namespace {

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
// ~n/(4*width) split. The 32 tail items carry ~67% of the total work;
// the single heaviest ~19%. The scale puts the loop at several ms even
// at 4 threads, above the CI gate's 2 ms noise floor.
std::uint64_t zipf_rounds(std::size_t i) {
  const double rank = static_cast<double>(kZipfItems - i);
  const double cost = 1.0e6 / std::pow(rank, 1.1);
  return static_cast<std::uint64_t>(cost) + 4;
}

void BM_SchedZipf(benchmark::State& state) {
  const auto run = [] {
    return lv::exec::parallel_map<std::uint64_t>(
        kZipfItems, [](std::size_t i) { return spin(zipf_rounds(i)); });
  };
  // Same inputs → every width must produce the serial loop's slots.
  lv::exec::set_thread_count(1);
  const auto expect = run();
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    if (run() != expect) {
      state.SkipWithError("schedule changed the results");
      lv::exec::set_thread_count(0);
      return;
    }
  }
  lv::exec::set_thread_count(0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kZipfItems; ++i) total += zipf_rounds(i);
  state.counters["spin_rounds"] = static_cast<double>(total);
}
BENCHMARK(BM_SchedZipf)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
