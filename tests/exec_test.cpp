// Determinism contract of the lv::exec layer: every parallelized sweep
// and campaign must produce output *bit-identical* to its serial loop at
// any thread count. These tests run the real figure pipelines (Fig. 3
// iso-delay curve, Fig. 4 V_T sweep, Fig. 10 energy-ratio grid, the
// energy-delay exploration, dual-VT assignment, the fault campaign) at
// widths {1, 2, 8} and compare with operator== on the doubles — no
// tolerance, since the layer's whole point is exact equivalence.
//
// Also pinned: the primitive-level contracts — per-index slots, the
// caller's ordered fold, lowest-index exception rethrow, failing
// per-worker state, empty ranges, nested calls running inline, and the
// guided cursor's claim sequence.
#include "exec/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "core/comparison.hpp"
#include "device/characterize.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "opt/dual_vt.hpp"
#include "opt/energy_delay.hpp"
#include "opt/voltage_opt.hpp"
#include "scoped_threads.hpp"
#include "sim/fault.hpp"
#include "sim/stimulus.hpp"
#include "util/numeric.hpp"

namespace e = lv::exec;
using lv::test::ScopedThreads;

namespace {

// fn(i) over [0, n): a stateless loop on the stateful primitive.
template <class Fn>
void for_each_index(std::size_t n, Fn&& fn) {
  e::parallel_for_stateful(
      n, [] { return 0; }, [&](int&, std::size_t i) { fn(i); });
}

// The fold the determinism contract asks of callers: map the terms,
// then add them in index order on the calling thread.
template <class Fn>
double ordered_sum(std::size_t n, Fn&& fn) {
  double acc = 0.0;
  for (const double term : e::parallel_map<double>(n, fn)) acc += term;
  return acc;
}

// Evaluates `fn` at widths 1, 2, and 8 and checks every result against
// the width-1 (serial code path) reference with the caller's comparator.
template <class Fn, class Eq>
void expect_same_at_all_widths(Fn&& fn, Eq&& eq) {
  const auto reference = [&] {
    const ScopedThreads serial{1};
    return fn();
  }();
  for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    const ScopedThreads threads{width};
    const auto got = fn();
    eq(reference, got, width);
  }
}

// Fault-campaign comparator: counts, first-detection profile and the
// undetected list, fault by fault.
void expect_same_coverage(const lv::sim::CoverageResult& ref,
                          const lv::sim::CoverageResult& got,
                          std::size_t width) {
  EXPECT_EQ(ref.total_faults, got.total_faults) << width;
  EXPECT_EQ(ref.detected, got.detected) << width;
  EXPECT_EQ(ref.coverage, got.coverage) << width;
  EXPECT_EQ(ref.first_detections, got.first_detections) << width;
  ASSERT_EQ(ref.undetected.size(), got.undetected.size()) << width;
  for (std::size_t i = 0; i < ref.undetected.size(); ++i) {
    EXPECT_EQ(ref.undetected[i].net, got.undetected[i].net) << width;
    EXPECT_EQ(ref.undetected[i].stuck_at, got.undetected[i].stuck_at)
        << width;
  }
}

// ---- primitive contracts ----------------------------------------------

TEST(ParallelPrimitives, MapFillsEverySlotInIndexOrder) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    const ScopedThreads threads{width};
    const auto out = e::parallel_map<double>(
        1000, [](std::size_t i) { return std::sqrt(static_cast<double>(i)); });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], std::sqrt(static_cast<double>(i)));
  }
}

TEST(ParallelPrimitives, SumFoldsInSerialOrder) {
  // Terms chosen so floating-point addition order matters: a serial fold
  // and any chunk-partial fold differ in the last bits.
  auto term = [](std::size_t i) {
    return 1.0 / (static_cast<double>(i) + 1.0) * (i % 2 == 0 ? 1.0 : -1e-8);
  };
  double serial = 0.0;
  for (std::size_t i = 0; i < 5000; ++i) serial += term(i);
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    const ScopedThreads threads{width};
    EXPECT_EQ(ordered_sum(5000, term), serial) << "width " << width;
  }
}

TEST(ParallelPrimitives, EmptyAndSingletonRanges) {
  const ScopedThreads threads{8};
  EXPECT_TRUE(e::parallel_map<int>(0, [](std::size_t) { return 1; }).empty());
  for_each_index(0, [](std::size_t) { FAIL() << "body ran on empty range"; });
  const auto one = e::parallel_map<int>(1, [](std::size_t) { return 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

TEST(ParallelPrimitives, LowestFailingIndexExceptionWins) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    const ScopedThreads threads{width};
    std::atomic<int> attempted{0};
    try {
      for_each_index(100, [&](std::size_t i) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (i == 17 || i == 63)
          throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected a throw at width " << width;
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "boom at 17") << "width " << width;
    }
    // Every index is attempted even after a throw.
    EXPECT_EQ(attempted.load(), 100) << "width " << width;
  }
}

TEST(ParallelPrimitives, NestedCallsRunInlineSerially) {
  // Inner parallel_map from a worker must not re-enter the pool; it runs
  // on the worker thread and still produces correct slots.
  const ScopedThreads threads{8};
  const auto out = e::parallel_map<double>(
      16,
      [](std::size_t i) {
        const bool outer_on_worker = e::on_worker_thread();
        const auto inner = e::parallel_map<double>(
            8,
            [&](std::size_t j) {
              // At width > 1, outer bodies may run on pool workers; the
              // nested region must stay on that same thread.
              EXPECT_EQ(e::on_worker_thread(), outer_on_worker);
              return static_cast<double>(i * 8 + j);
            });
        double acc = 0.0;
        for (const double v : inner) acc += v;
        return acc;
      });
  for (std::size_t i = 0; i < 16; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 8; ++j)
      expect += static_cast<double>(i * 8 + j);
    EXPECT_EQ(out[i], expect);
  }
}

TEST(ParallelPrimitives, StatefulMakeRunsPerWorkerAndStatePersists) {
  const ScopedThreads threads{4};
  std::atomic<int> makes{0};
  const auto out = e::parallel_map_stateful<int>(
      64,
      [&] {
        makes.fetch_add(1, std::memory_order_relaxed);
        return std::vector<int>{};  // per-worker scratch
      },
      [](std::vector<int>& scratch, std::size_t i) {
        scratch.push_back(static_cast<int>(i));
        return static_cast<int>(i) * 2;
      });
  EXPECT_LE(makes.load(), 4);
  EXPECT_GE(makes.load(), 1);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(ParallelPrimitives, FailingMakePropagates) {
  // At width 4 every worker's make() throws on its first claim; the
  // region still terminates and the error reaches the caller.
  const ScopedThreads threads{4};
  EXPECT_THROW(
      e::parallel_map_stateful<int>(
          32, []() -> int { throw std::runtime_error("no state"); },
          [](int&, std::size_t i) { return static_cast<int>(i); }),
      std::runtime_error);
}

// ---- primitive contracts under skewed per-index cost ------------------
//
// The first few indices are far more expensive than the rest, so the
// worker holding the opening claim lags while the others drain every
// later claim from the shared cursor. Which worker runs which index then
// differs from the even-cost case (and between runs); results, the
// exception contract and per-worker state must not notice. Widths 3, 5
// and 7 give claim sequences that the 1/2/8 tests above never produce.

// Spins for a cost that is large for i < 4 and negligible otherwise,
// then returns a value that depends only on i.
double skewed_term(std::size_t i) {
  volatile double sink = 0.0;
  const std::size_t spins = i < 4 ? 200000 : 10;
  for (std::size_t k = 0; k < spins; ++k) sink = sink + 1e-9;
  return 1.0 / (static_cast<double>(i) + 1.0) * (i % 2 == 0 ? 1.0 : -1e-8);
}

TEST(StealingPrimitives, MapFillsEverySlot) {
  for (const std::size_t width :
       {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    const ScopedThreads threads{width};
    const auto out = e::parallel_map<double>(
        1000, [](std::size_t i) { return skewed_term(i); });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], skewed_term(i)) << "width " << width << " slot " << i;
  }
}

TEST(StealingPrimitives, SumFoldsInSerialOrder) {
  double serial = 0.0;
  for (std::size_t i = 0; i < 5000; ++i) serial += skewed_term(i);
  for (const std::size_t width :
       {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    const ScopedThreads threads{width};
    EXPECT_EQ(ordered_sum(5000, skewed_term), serial) << "width " << width;
  }
}

TEST(StealingPrimitives, LowestFailingIndexExceptionWins) {
  // Index 2 is both slow and failing, so a faster worker reaches and
  // throws at 63 first; the lower index must still win.
  for (const std::size_t width :
       {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    const ScopedThreads threads{width};
    std::atomic<int> attempted{0};
    try {
      for_each_index(100, [&](std::size_t i) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        skewed_term(i);
        if (i == 2 || i == 63)
          throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected a throw at width " << width;
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "boom at 2") << "width " << width;
    }
    EXPECT_EQ(attempted.load(), 100) << "width " << width;
  }
}

TEST(StealingPrimitives, NestedCallsRunInlineSerially) {
  // The slow outer indices keep their workers inside a nested region
  // while the rest of the pool finishes the outer range.
  const ScopedThreads threads{5};
  const auto out = e::parallel_map<double>(
      12,
      [](std::size_t i) {
        const bool outer_on_worker = e::on_worker_thread();
        const auto inner = e::parallel_map<double>(
            8,
            [&](std::size_t j) {
              EXPECT_EQ(e::on_worker_thread(), outer_on_worker);
              return skewed_term(i) + static_cast<double>(j);
            });
        double acc = 0.0;
        for (const double v : inner) acc += v;
        return acc;
      });
  for (std::size_t i = 0; i < 12; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 8; ++j)
      expect += skewed_term(i) + static_cast<double>(j);
    EXPECT_EQ(out[i], expect) << "outer " << i;
  }
}

TEST(StealingPrimitives, StatefulMakeRunsAtMostOncePerWorker) {
  // Each state records the indices it served; together they must cover
  // the range exactly once however the claims were spread.
  const ScopedThreads threads{4};
  std::atomic<int> makes{0};
  std::vector<std::atomic<int>> served(64);
  struct Scratch {
    std::vector<std::atomic<int>>* served;
  };
  const auto out = e::parallel_map_stateful<double>(
      64,
      [&] {
        makes.fetch_add(1, std::memory_order_relaxed);
        return Scratch{&served};
      },
      [](Scratch& scratch, std::size_t i) {
        (*scratch.served)[i].fetch_add(1, std::memory_order_relaxed);
        return skewed_term(i);
      });
  EXPECT_LE(makes.load(), 4);
  EXPECT_GE(makes.load(), 1);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(served[i].load(), 1) << "index " << i;
    EXPECT_EQ(out[i], skewed_term(i)) << "index " << i;
  }
}

TEST(StealingPrimitives, EmptyAndSingletonRanges) {
  // With no work no state is made; with one index the width collapses to
  // the serial path and exactly one state is made.
  const ScopedThreads threads{8};
  std::atomic<int> makes{0};
  auto make = [&] {
    makes.fetch_add(1, std::memory_order_relaxed);
    return 0;
  };
  auto body = [](int&, std::size_t i) { return skewed_term(i); };
  EXPECT_TRUE(e::parallel_map_stateful<double>(0, make, body).empty());
  EXPECT_EQ(makes.load(), 0);
  const auto one = e::parallel_map_stateful<double>(1, make, body);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], skewed_term(0));
  EXPECT_EQ(makes.load(), 1);
}

// ---- guided cursor ----------------------------------------------------

TEST(GuidedCursor, ClaimsShrinkAndCoverEveryIndexExactlyOnce) {
  const ScopedThreads threads{8};
  lv::obs::set_enabled(true);
  auto& claims = lv::obs::Registry::global().counter(
      "exec.pool.chunks_claimed", lv::obs::Stability::scheduling);
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{3}, std::size_t{5}, std::size_t{16},
        std::size_t{17}, std::size_t{1000}}) {
    // Claim sizes depend only on the cursor position, so the claim
    // sequence at a given width is fixed; walk it the way drive() does.
    const std::size_t width = n < 8 ? n : 8;
    std::vector<std::size_t> sizes;
    for (std::size_t begin = 0; begin < n;) {
      const std::size_t size = e::detail::guided_claim(n - begin, width);
      ASSERT_GT(size, 0u) << "n " << n << " at " << begin;
      ASSERT_LE(size, n - begin) << "n " << n << " at " << begin;
      sizes.push_back(size);
      begin += size;
    }
    EXPECT_EQ(sizes.front(), (n + 4 * width - 1) / (4 * width)) << "n " << n;
    for (std::size_t k = 1; k < sizes.size(); ++k)
      EXPECT_LE(sizes[k], sizes[k - 1]) << "n " << n << " claim " << k;

    // The real region at width 8 runs every index once and bumps the
    // claim counter exactly once per claim of that sequence.
    std::vector<std::atomic<int>> ran(n);
    const std::uint64_t before = claims.value();
    for_each_index(n, [&](std::size_t i) {
      ran[i].fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(claims.value() - before, sizes.size()) << "n " << n;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(ran[i].load(), 1) << "n " << n << " index " << i;
  }
  lv::obs::set_enabled(false);
}

TEST(GuidedCursor, AutoChunkIsExactCeiling) {
  // The opening claim is exactly ceil(n / (4 * width)), never the
  // n/(4w) + 1 overshoot, and never below one index.
  EXPECT_EQ(e::detail::guided_claim(16, 2), 2u);  // overshoot would be 3
  EXPECT_EQ(e::detail::guided_claim(3, 8), 1u);
  EXPECT_EQ(e::detail::guided_claim(1, 8), 1u);
  EXPECT_EQ(e::detail::guided_claim(100, 4), 7u);  // ceil(100/16)
  EXPECT_EQ(e::detail::guided_claim(1000, 8), 32u);
  EXPECT_EQ(e::detail::guided_claim(32, 8), 1u);  // exact multiple
  EXPECT_EQ(e::detail::guided_claim(33, 8), 2u);
}

TEST(GuidedCursor, TinyNWithLargeWidthClaimsExactlyCeilChunks) {
  // For n <= 4 * width every claim is a single index, so a region of n
  // indices makes exactly n claims: no zero-length trailing claim from a
  // worker that arrives after the cursor reached n.
  const ScopedThreads threads{8};
  lv::obs::set_enabled(true);
  auto& claims = lv::obs::Registry::global().counter(
      "exec.pool.chunks_claimed", lv::obs::Stability::scheduling);
  for (const std::size_t n : {std::size_t{2}, std::size_t{3},
                              std::size_t{5}, std::size_t{16},
                              std::size_t{17}, std::size_t{32}}) {
    const std::uint64_t before = claims.value();
    std::atomic<int> ran{0};
    for_each_index(
        n, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(ran.load(), static_cast<int>(n));
    EXPECT_EQ(claims.value() - before, n) << "n " << n;
  }
  lv::obs::set_enabled(false);
}

TEST(ThreadPoolConfig, SetThreadCountOverridesAndZeroRestores) {
  e::set_thread_count(3);
  EXPECT_EQ(e::thread_count(), 3u);
  e::set_thread_count(0);
  EXPECT_GE(e::thread_count(), 1u);
}

TEST(ThreadPoolConfig, EnvironmentWidthOutsideTheBoundFallsBack) {
  // Only resolves the width; no pool is started at any of these values.
  e::set_thread_count(0);
  const char* saved = std::getenv("LVSIM_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("LVSIM_THREADS", "0", 1);
  const std::size_t fallback = e::thread_count();
  ::setenv("LVSIM_THREADS", "1025", 1);
  EXPECT_EQ(e::thread_count(), fallback);
  EXPECT_LE(e::thread_count(), e::kMaxThreads);
  ::setenv("LVSIM_THREADS", "3", 1);
  EXPECT_EQ(e::thread_count(), 3u);
  if (saved != nullptr)
    ::setenv("LVSIM_THREADS", restore.c_str(), 1);
  else
    ::unsetenv("LVSIM_THREADS");
}

// ---- figure pipelines: bit-identical across widths --------------------

TEST(SweepDeterminism, Fig3IsoDelayCurve) {
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  const auto vts = lv::util::linspace(0.05, 0.50, 19);
  expect_same_at_all_widths(
      [&] { return lv::opt::iso_delay_curve(tech, ring, vts, 120e-12); },
      [](const auto& ref, const auto& got, std::size_t width) {
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(ref[i].has_value(), got[i].has_value()) << width;
          if (ref[i]) {
            EXPECT_EQ(*ref[i], *got[i]) << "width " << width;
          }
        }
      });
}

TEST(SweepDeterminism, Fig4VtSweep) {
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  expect_same_at_all_widths(
      [&] {
        return lv::opt::optimize_vt(tech, ring, 5e6, 1.0, 0.05, 0.55, 21);
      },
      [](const auto& ref, const auto& got, std::size_t width) {
        ASSERT_EQ(ref.sweep.size(), got.sweep.size());
        for (std::size_t i = 0; i < ref.sweep.size(); ++i) {
          EXPECT_EQ(ref.sweep[i].vdd, got.sweep[i].vdd) << width;
          EXPECT_EQ(ref.sweep[i].total_energy, got.sweep[i].total_energy)
              << width;
          EXPECT_EQ(ref.sweep[i].feasible, got.sweep[i].feasible) << width;
        }
        EXPECT_EQ(ref.optimum.vt, got.optimum.vt) << width;
        EXPECT_EQ(ref.optimum.total_energy, got.optimum.total_energy)
            << width;
      });
}

TEST(SweepDeterminism, Fig10EnergyRatioGrid) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 8);
  const auto tech = lv::tech::soias();
  const lv::core::BurstOperatingPoint op{1.0, tech.backgate_swing, 50e6,
                                         1.0};
  const auto mod =
      lv::core::module_params_from_netlist(nl, tech, op.vdd, "adder");
  expect_same_at_all_widths(
      [&] {
        return lv::core::energy_ratio_grid(mod, 0.3, op, 1e-5, 1.0, 1e-5,
                                           1.0, 17);
      },
      [](const auto& ref, const auto& got, std::size_t width) {
        ASSERT_EQ(ref.log_ratio.size(), got.log_ratio.size());
        for (std::size_t b = 0; b < ref.log_ratio.size(); ++b)
          for (std::size_t f = 0; f < ref.log_ratio[b].size(); ++f)
            EXPECT_EQ(ref.log_ratio[b][f], got.log_ratio[b][f])
                << "width " << width << " cell (" << b << "," << f << ")";
      });
}

TEST(SweepDeterminism, EnergyDelayExploration) {
  lv::circuit::Netlist nl;
  lv::circuit::build_carry_lookahead_adder(nl, 8);
  const auto tech = lv::tech::soi_low_vt();
  expect_same_at_all_widths(
      [&] {
        return lv::opt::explore_energy_delay(nl, tech, 0.3, 0.5, 1.5, 13);
      },
      [](const auto& ref, const auto& got, std::size_t width) {
        ASSERT_EQ(ref.sweep.size(), got.sweep.size());
        for (std::size_t i = 0; i < ref.sweep.size(); ++i) {
          EXPECT_EQ(ref.sweep[i].delay, got.sweep[i].delay) << width;
          EXPECT_EQ(ref.sweep[i].energy, got.sweep[i].energy) << width;
          EXPECT_EQ(ref.sweep[i].feasible, got.sweep[i].feasible) << width;
        }
        EXPECT_EQ(ref.min_edp.vdd, got.min_edp.vdd) << width;
        EXPECT_EQ(ref.min_ed2.vdd, got.min_ed2.vdd) << width;
      });
}

TEST(SweepDeterminism, DualVtAssignmentWithBatchRetry) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 8);
  const auto tech = lv::tech::dual_vt_mtcmos();
  // assign_dual_vt runs no parallel region; this keeps it width-invariant
  // should one return. A tight margin makes batch commits fail, so the
  // one-by-one retry runs too.
  expect_same_at_all_widths(
      [&] { return lv::opt::assign_dual_vt(nl, tech, 1.0, 0.02); },
      [](const auto& ref, const auto& got, std::size_t width) {
        EXPECT_EQ(ref.high_vt_count, got.high_vt_count) << width;
        EXPECT_EQ(ref.use_high_vt, got.use_high_vt) << width;
        EXPECT_EQ(ref.delay_after, got.delay_after) << width;
        EXPECT_EQ(ref.leakage_after, got.leakage_after) << width;
      });
}

TEST(SweepDeterminism, FaultCampaign) {
  // rca8 grades every block inline; mul12's first block is above the
  // campaign's pool threshold (Obs.FaultCampaignStartsThePoolOnlyWhenItPays),
  // so it pins the pooled path and its hand-over to inline blocks.
  lv::circuit::Netlist rca;
  lv::circuit::build_ripple_carry_adder(rca, 8);
  lv::circuit::Netlist mul;
  lv::circuit::build_array_multiplier(mul, 12);
  for (const auto& [nl, count] : {std::pair{&rca, 48}, std::pair{&mul, 256}}) {
    const auto vecs = lv::sim::random_vectors(
        static_cast<std::size_t>(count),
        static_cast<int>(nl->primary_inputs().size()), 7);
    expect_same_at_all_widths(
        [&] { return lv::sim::fault_coverage(*nl, vecs); },
        expect_same_coverage);
  }
}

TEST(SweepDeterminism, CharacterizeIvSweeps) {
  const auto tech = lv::tech::soi_low_vt();
  const auto dev = tech.make_nmos(1.0);
  expect_same_at_all_widths(
      [&] {
        return lv::device::sweep_id_vgs(dev, 1.0, 0.0, 1.5, 301,
                                        tech.temp_k);
      },
      [](const auto& ref, const auto& got, std::size_t width) {
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(ref[i].vgs, got[i].vgs) << width;
          EXPECT_EQ(ref[i].id, got[i].id) << width;
        }
      });
}

// ---- claim placement: bit-identical at odd widths ---------------------

// Like expect_same_at_all_widths, but at widths 3, 5 and 7, whose guided
// claim sequences (and so the indices each worker runs) differ from the
// ones at 2 and 8.
template <class Fn, class Eq>
void expect_same_at_odd_widths(Fn&& fn, Eq&& eq) {
  const auto reference = [&] {
    const ScopedThreads serial{1};
    return fn();
  }();
  for (const std::size_t width :
       {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    const ScopedThreads threads{width};
    const auto got = fn();
    eq(reference, got, width);
  }
}

TEST(OddWidthDeterminism, FaultCampaign) {
  // cla8 runs inline, mul12's first block on the pool (see FaultCampaign).
  lv::circuit::Netlist cla;
  lv::circuit::build_carry_lookahead_adder(cla, 8);
  lv::circuit::Netlist mul;
  lv::circuit::build_array_multiplier(mul, 12);
  for (const auto& [nl, count] : {std::pair{&cla, 40}, std::pair{&mul, 256}}) {
    const auto vecs = lv::sim::random_vectors(
        static_cast<std::size_t>(count),
        static_cast<int>(nl->primary_inputs().size()), 11);
    expect_same_at_odd_widths(
        [&] { return lv::sim::fault_coverage(*nl, vecs); },
        expect_same_coverage);
  }
}

TEST(OddWidthDeterminism, Fig10EnergyRatioGrid) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 8);
  const auto tech = lv::tech::soias();
  const lv::core::BurstOperatingPoint op{1.0, tech.backgate_swing, 50e6,
                                         1.0};
  const auto mod =
      lv::core::module_params_from_netlist(nl, tech, op.vdd, "adder");
  expect_same_at_odd_widths(
      [&] {
        return lv::core::energy_ratio_grid(mod, 0.3, op, 1e-5, 1.0, 1e-5,
                                           1.0, 23);
      },
      [](const auto& ref, const auto& got, std::size_t width) {
        ASSERT_EQ(ref.log_ratio.size(), got.log_ratio.size());
        for (std::size_t b = 0; b < ref.log_ratio.size(); ++b)
          for (std::size_t f = 0; f < ref.log_ratio[b].size(); ++f)
            EXPECT_EQ(ref.log_ratio[b][f], got.log_ratio[b][f])
                << "width " << width << " cell (" << b << "," << f << ")";
      });
}

}  // namespace
