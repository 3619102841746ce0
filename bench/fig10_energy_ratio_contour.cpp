// Fig. 10 — log10(E_SOIAS / E_SOI) as a function of the activity
// variables (fga, bga), with application data points for an adder,
// shifter, and multiplier.
//
// Paper shape: a breakeven (zero) contour separates the plane; points for
// a continuously-active processor (modules powered down only when unused
// within a busy machine) sit near the contour — "little advantage" — while
// X-server operation (system active ~2% of the time) puts all three
// modules deep in SOIAS-wins territory with savings ordered
// multiplier > shifter > adder (paper: 97% / 81% / 43%).
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/generators.hpp"
#include "core/comparison.hpp"
#include "profile/profiler.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"
#include "workloads/kernels.hpp"

namespace {

// Mean node activity of a module netlist under random stimulus,
// extracted by the activity replay (bit-identical to a serial settle
// loop at any worker count; see sim/stimulus.hpp).
double measure_alpha(lv::circuit::Netlist& nl,
                     const std::vector<lv::circuit::NetId>& inputs) {
  lv::sim::Simulator sim{nl};
  sim.set_bus(inputs, 0);
  sim.settle();
  sim.clear_stats();
  const auto vecs =
      lv::sim::random_vectors(2000, static_cast<int>(inputs.size()), 0xa1fa);
  return lv::sim::mean_alpha(nl, lv::sim::replay_vectors(sim, inputs, vecs));
}

}  // namespace

int main(int argc, char** argv) {
  lv::bench::apply_bench_args(argc, argv);
  namespace c = lv::core;
  namespace ci = lv::circuit;
  namespace p = lv::profile;
  lv::bench::banner("Fig. 10", "log10(E_SOIAS/E_SOI) over (fga, bga)");

  const auto tech = lv::tech::soias();
  const c::BurstOperatingPoint op{1.0, tech.backgate_swing, 50e6, 1.0};

  // ---- Electrical module models from synthesized netlists ----
  ci::Netlist adder_nl;
  const auto adder_ports = ci::build_ripple_carry_adder(adder_nl, 16);
  ci::Netlist mul_nl;
  const auto mul_ports = ci::build_array_multiplier(mul_nl, 8);
  ci::Netlist shift_nl;
  const auto shift_ports = ci::build_barrel_shifter(shift_nl, 16);

  const auto adder_mod =
      c::module_params_from_netlist(adder_nl, tech, op.vdd, "adder");
  const auto mul_mod =
      c::module_params_from_netlist(mul_nl, tech, op.vdd, "multiplier");
  const auto shift_mod =
      c::module_params_from_netlist(shift_nl, tech, op.vdd, "shifter");

  std::vector<ci::NetId> adder_in = adder_ports.a;
  adder_in.insert(adder_in.end(), adder_ports.b.begin(), adder_ports.b.end());
  std::vector<ci::NetId> mul_in = mul_ports.a;
  mul_in.insert(mul_in.end(), mul_ports.b.begin(), mul_ports.b.end());
  std::vector<ci::NetId> shift_in = shift_ports.data;
  shift_in.insert(shift_in.end(), shift_ports.shamt.begin(),
                  shift_ports.shamt.end());

  const double alpha_adder = measure_alpha(adder_nl, adder_in);
  const double alpha_mul = measure_alpha(mul_nl, mul_in);
  const double alpha_shift = measure_alpha(shift_nl, shift_in);
  std::printf("measured alpha: adder %.3f, multiplier %.3f, shifter %.3f\n",
              alpha_adder, alpha_mul, alpha_shift);

  // ---- Architectural activity from the espresso-like profile ----
  // Gap tolerance 4 models a power-down controller with a few cycles of
  // hysteresis (strictly per-instruction gating would thrash).
  p::ActivityProfiler profiler{p::UnitMap::standard(), 4};
  lv::workloads::run_workload(lv::workloads::espresso_workload(96),
                              {&profiler});
  const auto prof_add = profiler.profile(p::FunctionalUnit::alu_adder);
  const auto prof_shift = profiler.profile(p::FunctionalUnit::shifter);
  const auto prof_mul = profiler.profile(p::FunctionalUnit::multiplier);

  // ---- Contour grid (adder module as the representative block) ----
  const auto grid = c::energy_ratio_grid(adder_mod, alpha_adder, op, 1e-5,
                                         1.0, 1e-5, 1.0, 41);
  // Render with bga on the vertical axis, largest at the top.
  std::vector<std::vector<double>> rows(grid.bga_axis.size());
  for (std::size_t b = 0; b < grid.bga_axis.size(); ++b)
    rows[b] = grid.log_ratio[grid.bga_axis.size() - 1 - b];
  std::printf("%s\n",
              lv::util::render_heatmap(
                  rows,
                  "log10(E_SOIAS/E_SOI): x = log fga (1e-5..1), "
                  "y = log bga (1 top .. 1e-5 bottom)",
                  true)
                  .c_str());
  const auto breakeven = grid.breakeven_bga();
  int contour_cols = 0;
  for (const auto& be : breakeven) contour_cols += be.has_value();

  // ---- Application points ----
  struct Case {
    const char* label;
    const c::ModuleParams& mod;
    const p::UnitProfile& prof;
    double alpha;
    double duty;
  };
  const Case cases[] = {
      {"adder (continuous)", adder_mod, prof_add, alpha_adder, 1.0},
      {"shifter (continuous)", shift_mod, prof_shift, alpha_shift, 1.0},
      {"multiplier (continuous)", mul_mod, prof_mul, alpha_mul, 1.0},
      {"adder (X-server 2%)", adder_mod, prof_add, alpha_adder, 0.02},
      {"shifter (X-server 2%)", shift_mod, prof_shift, alpha_shift, 0.02},
      {"multiplier (X-server 2%)", mul_mod, prof_mul, alpha_mul, 0.02},
  };

  lv::util::Table table{{"case", "fga", "bga", "alpha", "E_SOI_J", "E_SOIAS_J",
                         "log10_ratio", "savings_%"}};
  table.set_double_format("%.4g");
  std::vector<c::ApplicationPoint> points;
  for (const auto& tc : cases) {
    const auto act = c::activity_from_profile(tc.prof, tc.alpha, tc.duty);
    const auto pt = c::evaluate_application(tc.label, tc.mod, act, op);
    points.push_back(pt);
    table.add_row({std::string{tc.label}, act.fga, act.bga, act.alpha,
                   pt.e_soi, pt.e_soias, pt.log_ratio, pt.savings_percent});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  lv::bench::shape_check("breakeven contour present across the plane",
                         contour_cols > 10);
  lv::bench::shape_check(
      "continuous operation: little advantage (|savings| < 35%)",
      std::abs(points[0].savings_percent) < 35.0 &&
          std::abs(points[1].savings_percent) < 35.0 &&
          std::abs(points[2].savings_percent) < 35.0);
  lv::bench::shape_check(
      "X-server points all favor SOIAS (below the zero contour)",
      points[3].log_ratio < 0.0 && points[4].log_ratio < 0.0 &&
          points[5].log_ratio < 0.0);
  lv::bench::shape_check(
      "savings ordering multiplier > shifter > adder (paper 97/81/43%)",
      points[5].savings_percent > points[4].savings_percent &&
          points[4].savings_percent > points[3].savings_percent);
  lv::bench::shape_check(
      "X-server adder savings in the paper's ballpark (25-65%; paper 43%)",
      points[3].savings_percent > 25.0 && points[3].savings_percent < 65.0);
  lv::bench::shape_check(
      "X-server multiplier savings > 85% (paper 97%)",
      points[5].savings_percent > 85.0);
  return 0;
}
