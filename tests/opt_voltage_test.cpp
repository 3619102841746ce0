#include "opt/voltage_opt.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "reference_iso_delay.hpp"

namespace o = lv::opt;
namespace t = lv::timing;

namespace {

const lv::tech::Process& soi() {
  static const auto tech = lv::tech::soi_low_vt();
  return tech;
}

const t::RingOscillator kRing{101};

// The five builtin processes, whose NMOS and PMOS share every C(V) shape
// parameter, plus one whose PMOS differs in vt0, cg_sigma, phi_b and mj,
// so the one-pass inverter capacitances evaluate each device's samples.
std::vector<lv::tech::Process> pinned_processes() {
  auto skewed = lv::tech::soi_low_vt();
  skewed.name = "soi_low_vt_skewed_pmos";
  skewed.pmos.vt0 += 0.04;
  skewed.pmos.cg_sigma *= 1.3;
  skewed.pmos.phi_b += 0.1;
  skewed.pmos.mj -= 0.05;
  return {lv::tech::soi_low_vt(),     lv::tech::soias(),
          lv::tech::dual_vt_mtcmos(), lv::tech::bulk_cmos_06um(),
          lv::tech::bulk_body_bias(), skewed};
}

void expect_same_point(const o::EnergyPoint& got, const o::EnergyPoint& ref,
                       const std::string& where) {
  EXPECT_EQ(got.vt, ref.vt) << where;
  EXPECT_EQ(got.vdd, ref.vdd) << where;
  EXPECT_EQ(got.switching_energy, ref.switching_energy) << where;
  EXPECT_EQ(got.leakage_energy, ref.leakage_energy) << where;
  EXPECT_EQ(got.total_energy, ref.total_energy) << where;
  EXPECT_EQ(got.feasible, ref.feasible) << where;
}

}  // namespace

TEST(IsoDelay, VddIncreasesWithVt) {
  // Fig. 3's shape: at fixed delay, higher thresholds demand higher
  // supplies. The target must be fast enough that the solver does not
  // saturate at its supply floor for the lowest thresholds.
  const double target = 1e-10;  // 100 ps stage delay
  double prev = 0.0;
  for (double vt = 0.05; vt <= 0.5; vt += 0.05) {
    const auto vdd = o::iso_delay_vdd(soi(), kRing, vt, target);
    ASSERT_TRUE(vdd.has_value()) << "vt " << vt;
    EXPECT_GT(*vdd, prev) << "vt " << vt;
    prev = *vdd;
  }
}

TEST(IsoDelay, SubVoltSuppliesAtLowVt) {
  // The paper's headline: sub-1V operation at reduced thresholds without
  // performance loss.
  const auto vdd = o::iso_delay_vdd(soi(), kRing, 0.15, 2e-9);
  ASSERT_TRUE(vdd.has_value());
  EXPECT_LT(*vdd, 1.0);
  EXPECT_GT(*vdd, 0.05);
}

TEST(IsoDelay, FasterTargetNeedsHigherVdd) {
  const auto slow = o::iso_delay_vdd(soi(), kRing, 0.3, 4e-9);
  const auto fast = o::iso_delay_vdd(soi(), kRing, 0.3, 1e-9);
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(fast.has_value());
  EXPECT_GT(*fast, *slow);
}

TEST(IsoDelay, ImpossibleTargetReturnsNullopt) {
  // Femtosecond stage delay is beyond any supply in range.
  EXPECT_FALSE(o::iso_delay_vdd(soi(), kRing, 0.4, 1e-15).has_value());
}

TEST(RingEnergy, FeasiblePointDecomposes) {
  const auto pt = o::ring_energy_at_vt(soi(), kRing, 0.25, 5e6, 1.0);
  ASSERT_TRUE(pt.feasible);
  EXPECT_GT(pt.switching_energy, 0.0);
  EXPECT_GT(pt.leakage_energy, 0.0);
  EXPECT_NEAR(pt.total_energy, pt.switching_energy + pt.leakage_energy,
              1e-20);
}

TEST(RingEnergy, LeakageDominatesAtVeryLowVt) {
  const auto low = o::ring_energy_at_vt(soi(), kRing, 0.05, 5e6, 1.0);
  ASSERT_TRUE(low.feasible);
  EXPECT_GT(low.leakage_energy, low.switching_energy);
}

TEST(RingEnergy, SwitchingDominatesAtHighVt) {
  const auto high = o::ring_energy_at_vt(soi(), kRing, 0.5, 5e6, 1.0);
  ASSERT_TRUE(high.feasible);
  EXPECT_GT(high.switching_energy, high.leakage_energy);
}

TEST(OptimizeVt, InteriorMinimumExists) {
  // Fig. 4: the energy curve is U-shaped with an interior optimum.
  const auto result = o::optimize_vt(soi(), kRing, 5e6, 1.0, 0.05, 0.55);
  ASSERT_TRUE(result.optimum.feasible);
  EXPECT_GT(result.optimum.vt, 0.06);
  EXPECT_LT(result.optimum.vt, 0.54);
  // Endpoints cost more than the optimum.
  const auto& sweep = result.sweep;
  ASSERT_TRUE(sweep.front().feasible);
  ASSERT_TRUE(sweep.back().feasible);
  EXPECT_GT(sweep.front().total_energy, result.optimum.total_energy);
  EXPECT_GT(sweep.back().total_energy, result.optimum.total_energy);
}

TEST(OptimizeVt, OptimumSupplyWellBelowOneVolt) {
  // "It is interesting to note that the optimum voltage is significantly
  // lower than 1V!" (Section 3).
  const auto result = o::optimize_vt(soi(), kRing, 5e6, 1.0, 0.05, 0.55);
  ASSERT_TRUE(result.optimum.feasible);
  EXPECT_LT(result.optimum.vdd, 1.0);
}

TEST(OptimizeVt, LowActivityPushesOptimumVtUp) {
  // "A circuit which has very low switching activity will require a
  // high-threshold voltage" (Section 3).
  const auto busy = o::optimize_vt(soi(), kRing, 5e6, 1.0, 0.05, 0.55);
  const auto quiet = o::optimize_vt(soi(), kRing, 5e6, 0.02, 0.05, 0.55);
  ASSERT_TRUE(busy.optimum.feasible);
  ASSERT_TRUE(quiet.optimum.feasible);
  EXPECT_GT(quiet.optimum.vt, busy.optimum.vt + 0.02);
}

TEST(OptimizeVt, SlowerClockPushesOptimumVtUp) {
  // Longer cycle time integrates more leakage per cycle.
  const auto fast = o::optimize_vt(soi(), kRing, 20e6, 1.0, 0.05, 0.55);
  const auto slow = o::optimize_vt(soi(), kRing, 1e6, 1.0, 0.05, 0.55);
  ASSERT_TRUE(fast.optimum.feasible);
  ASSERT_TRUE(slow.optimum.feasible);
  EXPECT_GT(slow.optimum.vt, fast.optimum.vt);
}

// ---- bit-equality with the retained reference solver -----------------

TEST(IsoDelayReference, OptimizeVtBitEqualOnEveryProcess) {
  for (const auto& tech : pinned_processes()) {
    for (const double f_clk : {1e6, 5e6, 2e7}) {
      for (const double activity : {0.1, 0.5, 1.0}) {
        const auto ref = o::testing::ref_optimize_vt(tech, kRing, f_clk,
                                                     activity, 0.05, 0.55, 26);
        // Width 4 splits the grid over four per-worker memos.
        for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
          lv::exec::set_thread_count(width);
          const auto got =
              o::optimize_vt(tech, kRing, f_clk, activity, 0.05, 0.55, 26);
          const std::string where = tech.name + " fclk " +
                                    std::to_string(f_clk) + " activity " +
                                    std::to_string(activity) + " width " +
                                    std::to_string(width);
          ASSERT_EQ(got.sweep.size(), ref.sweep.size()) << where;
          for (std::size_t k = 0; k < ref.sweep.size(); ++k) {
            expect_same_point(got.sweep[k], ref.sweep[k],
                              where + " point " + std::to_string(k));
          }
          expect_same_point(got.optimum, ref.optimum, where + " optimum");
          EXPECT_EQ(got.status.converged, ref.status.converged) << where;
          EXPECT_EQ(got.status.iterations, ref.status.iterations) << where;
          EXPECT_EQ(got.status.residual, ref.status.residual) << where;
          EXPECT_EQ(got.status.reason, ref.status.reason) << where;
        }
      }
    }
  }
  lv::exec::set_thread_count(0);
}

TEST(IsoDelayReference, IsoDelayCurveBitEqualOnEveryProcess) {
  const auto vts = lv::util::linspace(0.05, 0.50, 19);
  for (const auto& tech : pinned_processes()) {
    for (const double target : {60e-12, 120e-12, 2e-9}) {
      const auto got = o::iso_delay_curve(tech, kRing, vts, target);
      ASSERT_EQ(got.size(), vts.size());
      for (std::size_t k = 0; k < vts.size(); ++k) {
        const auto ref = o::testing::ref_iso_delay_vdd(tech, vts[k], target);
        ASSERT_EQ(got[k].has_value(), ref.has_value()) << tech.name << " " << k;
        if (ref) {
          EXPECT_EQ(*got[k], *ref) << tech.name << " " << k;
        }
        EXPECT_EQ(o::iso_delay_vdd(tech, kRing, vts[k], target), ref)
            << tech.name << " " << k;
      }
    }
  }
}

TEST(IsoDelayReference, RingEnergyAtVtBitEqualOnEveryProcess) {
  for (const auto& tech : pinned_processes()) {
    for (const double vt : {0.05, 0.18, 0.3, 0.55}) {
      for (const double f_clk : {1e6, 5e6, 2e7}) {
        for (const double activity : {0.1, 0.5, 1.0}) {
          expect_same_point(
              o::ring_energy_at_vt(tech, kRing, vt, f_clk, activity),
              o::testing::ref_ring_energy_at_vt(tech, kRing, vt, f_clk,
                                                activity),
              tech.name + " vt " + std::to_string(vt));
        }
      }
    }
  }
}

TEST(BodyBias, ReductionGrowsWithBias) {
  const auto tech = lv::tech::bulk_body_bias();
  const auto one = o::plan_body_bias(tech, 1.0, 1.0);
  const auto two = o::plan_body_bias(tech, 1.0, 2.0);
  EXPECT_GE(two.standby_vsb, one.standby_vsb);
  EXPECT_GE(two.leakage_reduction, one.leakage_reduction);
  EXPECT_GT(one.vt_standby, one.vt_active);
}

TEST(BodyBias, SqrtLawMakesDecadesExpensive) {
  // The paper's criticism: VT moves as sqrt(Vsb), so the second decade of
  // leakage reduction costs much more bias than the first.
  const auto tech = lv::tech::bulk_body_bias();
  const auto one = o::plan_body_bias(tech, 1.0, 1.0);
  const auto two = o::plan_body_bias(tech, 1.0, 2.0);
  ASSERT_GE(one.leakage_reduction, 9.0);
  if (two.leakage_reduction >= 99.0) {
    EXPECT_GT(two.standby_vsb - one.standby_vsb, one.standby_vsb);
  } else {
    // Target unreachable within the scanned range - also evidence of the
    // diminishing-returns law.
    EXPECT_GT(two.standby_vsb, 3.9);
  }
}

TEST(BodyBias, UnreachableTargetReportsBestEffort) {
  const auto tech = lv::tech::bulk_body_bias();
  const auto plan = o::plan_body_bias(tech, 1.0, 12.0, 2.0);
  EXPECT_LE(plan.standby_vsb, 2.0);
  EXPECT_LT(plan.leakage_reduction, 1e12);
  EXPECT_GT(plan.leakage_reduction, 1.0);
}
