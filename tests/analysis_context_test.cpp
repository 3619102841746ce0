// Equivalence contract of the retargetable analysis layer: an
// AnalysisContext stepped across operating points must reproduce, at
// every point, what freshly-constructed LoadModel / PowerEstimator / Sta
// engines compute there — within 1e-12 relative error (the
// implementation is designed to be bit-identical; the tolerance guards
// against future compilers reassociating).
#include "analysis/analysis_context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/load_model.hpp"
#include "power/estimator.hpp"
#include "timing/delay_model.hpp"
#include "timing/sta.hpp"

namespace a = lv::analysis;
namespace c = lv::circuit;
namespace p = lv::power;
namespace t = lv::timing;

namespace {

constexpr double kRelTol = 1e-12;

void expect_close(double retargeted, double fresh, const char* what) {
  const double scale = std::max(std::abs(fresh), 1e-300);
  EXPECT_LE(std::abs(retargeted - fresh) / scale, kRelTol)
      << what << ": retargeted " << retargeted << " vs fresh " << fresh;
}

c::Netlist mixed_netlist() {
  // An adder (combinational depth) plus registers (clock load, sequential
  // endpoints) exercises every load/leakage/delay term.
  c::Netlist nl;
  c::build_carry_lookahead_adder(nl, 12);
  c::build_register_bank(nl, c::CellKind::dff_tspc, 8);
  return nl;
}

lv::sim::ActivityStats toy_activity(const c::Netlist& nl) {
  lv::sim::ActivityStats stats{nl.net_count()};
  stats.set_cycles(64);
  for (c::NetId n = 0; n < nl.net_count(); ++n)
    stats.set_net_counts(n, 2 * (n % 17), n % 11);
  return stats;
}

const std::vector<a::OperatingPoint>& grid() {
  static const std::vector<a::OperatingPoint> pts = [] {
    std::vector<a::OperatingPoint> g;
    for (const double vdd : {0.5, 0.9, 1.4})
      for (const double vt : {0.0, 0.12})
        for (const double temp : {300.0, 360.0})
          g.push_back({.vdd = vdd, .f_clk = 40e6, .vt_shift = vt,
                       .temp_k = temp});
    return g;
  }();
  return pts;
}

}  // namespace

TEST(AnalysisContext, RetargetedLoadsMatchFreshConstruction) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech};
  for (const auto& op : grid()) {
    ctx.set_operating_point(op);
    const c::LoadModel fresh{nl, tech, op.vdd};
    const auto& got = ctx.loads();
    ASSERT_EQ(got.vdd(), op.vdd);
    for (c::NetId n = 0; n < nl.net_count(); ++n)
      expect_close(got.net_load(n), fresh.net_load(n), "net_load");
    expect_close(got.total_cap(), fresh.total_cap(), "total_cap");
    expect_close(got.clock_cap(), fresh.clock_cap(), "clock_cap");
    expect_close(got.unit_input_cap(), fresh.unit_input_cap(),
                 "unit_input_cap");
    expect_close(got.unit_parasitic_cap(), fresh.unit_parasitic_cap(),
                 "unit_parasitic_cap");
  }
}

TEST(AnalysisContext, RetargetDownThenBackIsExact) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech, {.vdd = 1.1}};
  const double before = ctx.loads().total_cap();
  ctx.set_operating_point({.vdd = 0.4});
  ctx.set_operating_point({.vdd = 1.1});
  EXPECT_EQ(ctx.loads().total_cap(), before);
}

TEST(AnalysisContext, RetargetedPowerMatchesFreshEstimator) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech};
  const p::PowerEstimator through_ctx{ctx};
  const auto stats = toy_activity(nl);
  for (const auto& op : grid()) {
    ctx.set_operating_point(op);
    const p::PowerEstimator fresh{nl, tech, op};
    const auto got = through_ctx.estimate_uniform(0.3);
    const auto want = fresh.estimate_uniform(0.3);
    expect_close(got.switching, want.switching, "switching");
    expect_close(got.short_circuit, want.short_circuit, "short_circuit");
    expect_close(got.leakage, want.leakage, "leakage");
    expect_close(got.clock, want.clock, "clock");
    expect_close(through_ctx.leakage_current(0.05),
                 fresh.leakage_current(0.05), "leakage_current(shift)");
    expect_close(through_ctx.switched_cap_per_cycle(stats),
                 fresh.switched_cap_per_cycle(stats), "switched_cap");
  }
}

TEST(AnalysisContext, RetargetedTimingMatchesFreshSta) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech};
  const t::Sta through_ctx{ctx};
  std::vector<double> shifts(nl.instance_count(), 0.0);
  for (std::size_t i = 0; i < shifts.size(); ++i)
    if (i % 3 == 0) shifts[i] = 0.08;  // mixed-VT flavor exercise
  for (const auto& op : grid()) {
    ctx.set_operating_point(op);
    const t::Sta fresh{nl, tech, op.vdd};
    const auto got = through_ctx.run(1e-9, shifts);
    const auto want = fresh.run(1e-9, shifts);
    expect_close(got.critical_delay, want.critical_delay, "critical_delay");
    ASSERT_EQ(got.critical_path, want.critical_path);
    for (c::InstanceId i = 0; i < nl.instance_count(); ++i) {
      expect_close(got.instance_delay[i], want.instance_delay[i],
                   "instance_delay");
      if (std::isfinite(want.instance_slack[i]))
        expect_close(got.instance_slack[i], want.instance_slack[i],
                     "instance_slack");
    }
  }
}

TEST(AnalysisContext, SizedVariantMatchesFreshSizedConstruction) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  std::vector<double> sizes(nl.instance_count(), 1.0);
  for (std::size_t i = 0; i < sizes.size(); ++i)
    if (i % 2 == 0) sizes[i] = 0.5;

  a::AnalysisContext ctx{nl, tech};
  const t::Sta through_ctx{ctx};
  const std::vector<double> shifts(nl.instance_count(), 0.0);
  for (const auto& op : grid()) {
    ctx.set_operating_point(op);

    // Incrementally sized copy of the context loads vs fresh build.
    c::LoadModel incremental{ctx.loads()};
    for (c::InstanceId i = 0; i < nl.instance_count(); ++i)
      incremental.set_instance_size(i, sizes[i]);
    const c::LoadModel fresh{nl, tech, op.vdd, sizes};
    for (c::NetId n = 0; n < nl.net_count(); ++n)
      expect_close(incremental.net_load(n), fresh.net_load(n),
                   "sized net_load");

    // run_with_loads over the incremental model vs the rebuild-per-call
    // sized run of a fresh Sta.
    const t::Sta fresh_sta{nl, tech, op.vdd};
    const auto got =
        through_ctx.run_with_loads(1e-9, shifts, incremental);
    const auto want = fresh_sta.run(1e-9, shifts, sizes);
    expect_close(got.critical_delay, want.critical_delay,
                 "sized critical_delay");
    for (c::InstanceId i = 0; i < nl.instance_count(); ++i)
      expect_close(got.instance_delay[i], want.instance_delay[i],
                   "sized instance_delay");
  }
}

TEST(AnalysisContext, SizeRevertRestoresOriginalLoads) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech};
  c::LoadModel loads{ctx.loads()};
  const double before = loads.total_cap();
  loads.set_instance_size(3, 0.5);
  loads.set_instance_size(7, 2.0);
  loads.set_instance_size(3, 1.0);
  loads.set_instance_size(7, 1.0);
  EXPECT_EQ(loads.total_cap(), before);
}

TEST(AnalysisContext, DelayPrimitivesMatchDelayModel) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech};
  for (const double vdd : {0.45, 0.8, 1.3}) {
    for (const double shift : {0.0, 0.1, 0.25}) {
      ctx.set_operating_point({.vdd = vdd});
      const t::DelayModel dm{tech, vdd, shift};
      EXPECT_EQ(ctx.unit_drive_current(shift), dm.unit_drive_current());
      EXPECT_EQ(ctx.delay_for_load(2e-15, 1.5, shift),
                dm.delay_for_load(2e-15, 1.5));
      EXPECT_EQ(ctx.inverter_fo1_delay(shift), dm.inverter_fo1_delay());
      EXPECT_EQ(ctx.delay_feasible(shift), dm.feasible());
    }
  }
}

TEST(AnalysisContext, CloneMatchesFreshConstructionAndIsIndependent) {
  const auto nl = mixed_netlist();
  const auto tech = lv::tech::soi_low_vt();
  a::AnalysisContext ctx{nl, tech, {.vdd = 0.9}};
  // Warm the memo caches so the clone copies non-trivial state.
  ctx.cell_leakage();
  ctx.stack_factors();
  ctx.inverter_fo1_delay();

  a::AnalysisContext cloned = ctx.clone();
  EXPECT_EQ(&cloned.netlist(), &ctx.netlist());  // netlist is shared

  for (const auto& op : grid()) {
    cloned.set_operating_point(op);
    const a::AnalysisContext fresh{nl, tech, op};
    // Exact equality: a clone must behave like a context freshly
    // constructed at the same point, bit for bit.
    for (c::NetId n = 0; n < nl.net_count(); ++n)
      ASSERT_EQ(cloned.loads().net_load(n), fresh.loads().net_load(n));
    const auto& got_leak = cloned.cell_leakage(0.05);
    const auto& want_leak = fresh.cell_leakage(0.05);
    ASSERT_EQ(got_leak, want_leak);
    EXPECT_EQ(cloned.unit_drive_current(0.1), fresh.unit_drive_current(0.1));
    EXPECT_EQ(cloned.inverter_fo1_delay(), fresh.inverter_fo1_delay());
    const t::Sta got_sta{cloned};
    const t::Sta want_sta{fresh};
    EXPECT_EQ(got_sta.run(1e-9).critical_delay,
              want_sta.run(1e-9).critical_delay);
  }

  // Retargeting the clone never moved the original.
  EXPECT_EQ(ctx.operating_point().vdd, 0.9);
  EXPECT_EQ(ctx.loads().vdd(), 0.9);
}

TEST(AnalysisContext, ModuleQueriesSurviveRetarget) {
  lv::circuit::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const auto tech = lv::tech::soias();
  a::AnalysisContext ctx{nl, tech, {.vdd = 1.0}};
  const p::PowerEstimator through_ctx{ctx};
  for (const double vdd : {0.6, 1.0, 1.8}) {
    ctx.set_operating_point({.vdd = vdd, .temp_k = tech.temp_k});
    const c::LoadModel fresh{nl, tech, vdd};
    for (const auto& mod : nl.modules())
      expect_close(ctx.loads().module_cap(mod), fresh.module_cap(mod),
                   "module_cap");
    const p::PowerEstimator fresh_est{
        nl, tech, {.vdd = vdd, .temp_k = tech.temp_k}};
    for (const auto& mod : nl.modules())
      expect_close(through_ctx.module_leakage_current(mod),
                   fresh_est.module_leakage_current(mod),
                   "module_leakage_current");
  }
}
