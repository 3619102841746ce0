// P2 — analysis-engine throughput: power estimation, STA, the iso-delay
// solver, and dual-VT assignment, plus thread-scaling pairs for the
// lv::exec-parallelized sweeps (google-benchmark; informational).
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/analysis_context.hpp"
#include "circuit/generators.hpp"
#include "core/comparison.hpp"
#include "exec/thread_pool.hpp"
#include "opt/dual_vt.hpp"
#include "opt/energy_delay.hpp"
#include "opt/voltage_opt.hpp"
#include "power/estimator.hpp"
#include "reference_dual_vt.hpp"
#include "timing/sta.hpp"

namespace {

void BM_PowerEstimateUniform(benchmark::State& state) {
  lv::circuit::Netlist nl;
  lv::circuit::build_array_multiplier(nl, 8);
  const lv::power::PowerEstimator est{nl, lv::tech::soi_low_vt(), {}};
  for (auto _ : state) {
    const auto br = est.estimate_uniform(0.3);
    benchmark::DoNotOptimize(br.switching);
  }
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_PowerEstimateUniform);

void BM_StaRun(benchmark::State& state) {
  lv::circuit::Netlist nl;
  lv::circuit::build_carry_lookahead_adder(
      nl, static_cast<int>(state.range(0)));
  const lv::timing::Sta sta{nl, lv::tech::soi_low_vt(), 1.0};
  for (auto _ : state) {
    const auto r = sta.run(1e-9);
    benchmark::DoNotOptimize(r.critical_delay);
  }
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}
BENCHMARK(BM_StaRun)->Arg(16)->Arg(32);

void BM_IsoDelaySolve(benchmark::State& state) {
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  double vt = 0.1;
  for (auto _ : state) {
    const auto vdd = lv::opt::iso_delay_vdd(tech, ring, vt, 120e-12);
    benchmark::DoNotOptimize(vdd);
    vt = vt > 0.45 ? 0.1 : vt + 0.01;
  }
}
BENCHMARK(BM_IsoDelaySolve);

// Dual-VT assignment on a served ~200-gate design at every supply of
// perfbench's explore_serve mix and three period margins. _Reference runs
// the retained full-STA greedy (tests/reference_dual_vt.hpp) on the same
// points; both must agree before any timing counts, and CI gates the
// ratio within one run.
struct DualVtPoint {
  double vdd;
  double margin;
};

const std::vector<DualVtPoint>& dual_vt_points() {
  static const std::vector<DualVtPoint> v = [] {
    std::vector<DualVtPoint> out;
    for (const double vdd : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5})
      for (const double margin : {0.0, 0.05, 0.5})
        out.push_back({vdd, margin});
    return out;
  }();
  return v;
}

template <typename Assign>
void run_dual_vt(benchmark::State& state, Assign assign) {
  lv::circuit::Netlist nl;
  lv::circuit::build_kogge_stone_adder(nl, 16);
  const auto tech = lv::tech::dual_vt_mtcmos();
  for (const auto& [vdd, margin] : dual_vt_points()) {
    const auto got = assign(nl, tech, vdd, margin);
    const auto ref =
        lv::opt::testing::reference_assign_dual_vt(nl, tech, vdd, margin, 8);
    if (got.use_high_vt != ref.use_high_vt ||
        got.leakage_after != ref.leakage_after) {
      state.SkipWithError("assignment differs from the reference");
      return;
    }
  }
  for (auto _ : state) {
    std::size_t moved = 0;
    for (const auto& [vdd, margin] : dual_vt_points())
      moved += assign(nl, tech, vdd, margin).high_vt_count;
    benchmark::DoNotOptimize(moved);
  }
  state.counters["gates"] = static_cast<double>(nl.instance_count());
}

void BM_DualVtAssign(benchmark::State& state) {
  run_dual_vt(state, [](const auto& nl, const auto& tech, double vdd,
                        double margin) {
    return lv::opt::assign_dual_vt(nl, tech, vdd, margin);
  });
}
BENCHMARK(BM_DualVtAssign)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DualVtAssignReference(benchmark::State& state) {
  run_dual_vt(state, [](const auto& nl, const auto& tech, double vdd,
                        double margin) {
    return lv::opt::testing::reference_assign_dual_vt(nl, tech, vdd, margin,
                                                      8);
  });
}
BENCHMARK(BM_DualVtAssignReference)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// DVFS-style supply sweep, the workload the AnalysisContext refactor
// targets: evaluate power + timing at every V_DD point. The _Reconstruct
// variant builds fresh engines per point (the pre-refactor pattern); the
// _Retarget variant re-aims one shared context. Same results (see
// tests/analysis_context_test.cpp), different asymptotics: reconstruct
// pays O(nets + pins) extraction plus capacitance integrals per point,
// retarget pays four integral evaluations and O(nets) multiplies.
std::vector<double> sweep_vdds() {
  std::vector<double> v;
  for (double vdd = 0.5; vdd <= 1.5; vdd += 0.05) v.push_back(vdd);
  return v;
}

void BM_DvfsSweep_Reconstruct(benchmark::State& state) {
  lv::circuit::Netlist nl;
  lv::circuit::build_array_multiplier(nl, 8);
  const auto tech = lv::tech::soi_low_vt();
  const auto vdds = sweep_vdds();
  for (auto _ : state) {
    double acc = 0.0;
    for (const double vdd : vdds) {
      const lv::power::PowerEstimator est{nl, tech, {.vdd = vdd}};
      const lv::timing::Sta sta{nl, tech, vdd};
      acc += est.estimate_uniform(0.3).switching +
             sta.run(1e-9).critical_delay;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["points"] = static_cast<double>(vdds.size());
}
BENCHMARK(BM_DvfsSweep_Reconstruct);

void BM_DvfsSweep_Retarget(benchmark::State& state) {
  lv::circuit::Netlist nl;
  lv::circuit::build_array_multiplier(nl, 8);
  const auto tech = lv::tech::soi_low_vt();
  const auto vdds = sweep_vdds();
  lv::analysis::AnalysisContext ctx{nl, tech};
  const lv::power::PowerEstimator est{ctx};
  const lv::timing::Sta sta{ctx};
  for (auto _ : state) {
    double acc = 0.0;
    for (const double vdd : vdds) {
      ctx.set_operating_point({.vdd = vdd});
      acc += est.estimate_uniform(0.3).switching +
             sta.run(1e-9).critical_delay;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["points"] = static_cast<double>(vdds.size());
}
BENCHMARK(BM_DvfsSweep_Retarget);

// Energy-delay characterization inner loop: delay first, then power at
// the implied frequency — two operating-point updates per V_DD.
void BM_EnergyDelaySweep_Reconstruct(benchmark::State& state) {
  lv::circuit::Netlist nl;
  lv::circuit::build_carry_lookahead_adder(nl, 16);
  const auto tech = lv::tech::soi_low_vt();
  const auto vdds = sweep_vdds();
  for (auto _ : state) {
    double acc = 0.0;
    for (const double vdd : vdds) {
      const lv::timing::Sta sta{nl, tech, vdd};
      const double delay = sta.run(1e-9).critical_delay;
      const lv::power::PowerEstimator est{
          nl, tech, {.vdd = vdd, .f_clk = 1.0 / delay}};
      const auto br = est.estimate_uniform(0.3);
      acc += (br.switching + br.leakage) * delay;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["points"] = static_cast<double>(vdds.size());
}
BENCHMARK(BM_EnergyDelaySweep_Reconstruct);

void BM_EnergyDelaySweep_Retarget(benchmark::State& state) {
  lv::circuit::Netlist nl;
  lv::circuit::build_carry_lookahead_adder(nl, 16);
  const auto tech = lv::tech::soi_low_vt();
  const auto vdds = sweep_vdds();
  lv::analysis::AnalysisContext ctx{nl, tech};
  const lv::timing::Sta sta{ctx};
  const lv::power::PowerEstimator est{ctx};
  for (auto _ : state) {
    double acc = 0.0;
    for (const double vdd : vdds) {
      ctx.set_operating_point({.vdd = vdd});
      const double delay = sta.run(1e-9).critical_delay;
      ctx.set_operating_point({.vdd = vdd, .f_clk = 1.0 / delay});
      const auto br = est.estimate_uniform(0.3);
      acc += (br.switching + br.leakage) * delay;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["points"] = static_cast<double>(vdds.size());
}
BENCHMARK(BM_EnergyDelaySweep_Retarget);

// ---- lv::exec thread scaling -----------------------------------------
// Each benchmark takes the worker width as its argument; /1 is the serial
// code path, so the /1 vs /8 ratio is the parallel speedup. Results are
// bit-identical at every width (tests/exec_test.cpp pins this), so the
// pairs measure scheduling, not approximation.

// Fig. 10 energy-ratio grid at a dense 201x201 sampling (the production
// 41x41 grid finishes in tens of microseconds — too little work to time
// scheduling against).
void BM_Fig10Grid(benchmark::State& state) {
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 16);
  const auto tech = lv::tech::soias();
  const lv::core::BurstOperatingPoint op{1.0, tech.backgate_swing, 50e6,
                                         1.0};
  const auto mod =
      lv::core::module_params_from_netlist(nl, tech, op.vdd, "adder");
  for (auto _ : state) {
    const auto grid = lv::core::energy_ratio_grid(mod, 0.3, op, 1e-5, 1.0,
                                                  1e-5, 1.0, 201);
    benchmark::DoNotOptimize(grid.log_ratio[0][0]);
  }
  state.counters["cells"] = 201.0 * 201.0;
  lv::exec::set_thread_count(0);
}
BENCHMARK(BM_Fig10Grid)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// Fig. 4 V_T sweep: 41 iso-delay bisections + energy evaluations.
void BM_VtSweep(benchmark::State& state) {
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  const auto tech = lv::tech::soi_low_vt();
  const lv::timing::RingOscillator ring{101};
  for (auto _ : state) {
    const auto r = lv::opt::optimize_vt(tech, ring, 5e6, 1.0, 0.05, 0.55, 41);
    benchmark::DoNotOptimize(r.optimum.total_energy);
  }
  state.counters["points"] = 41.0;
  lv::exec::set_thread_count(0);
}
BENCHMARK(BM_VtSweep)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// Netlist energy-delay sweep: per-point STA + power on context clones.
void BM_EnergyDelayExplore(benchmark::State& state) {
  lv::exec::set_thread_count(static_cast<std::size_t>(state.range(0)));
  lv::circuit::Netlist nl;
  lv::circuit::build_carry_lookahead_adder(nl, 16);
  const auto tech = lv::tech::soi_low_vt();
  for (auto _ : state) {
    const auto r = lv::opt::explore_energy_delay(nl, tech, 0.3, 0.5, 1.5, 25);
    benchmark::DoNotOptimize(r.min_edp.edp);
  }
  state.counters["points"] = 25.0;
  lv::exec::set_thread_count(0);
}
BENCHMARK(BM_EnergyDelayExplore)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
