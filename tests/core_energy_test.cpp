#include "core/energy_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generators.hpp"
#include "core/comparison.hpp"
#include "util/error.hpp"

namespace c = lv::core;
namespace u = lv::util;

namespace {

// A representative hand-set module (16-bit-adder scale in the SOIAS
// process at 1 V / 50 MHz).
c::ModuleParams test_module() {
  c::ModuleParams m;
  m.name = "adder";
  m.c_fg = 6.5e-13;
  m.c_bg = 7.0e-14;
  m.i_leak_low = 1.6e-7;
  m.i_leak_high = 1.6e-11;
  m.i_leak_gated = 1.6e-13;
  return m;
}

const c::BurstOperatingPoint kOp{1.0, 3.0, 50e6, 1.0};

}  // namespace

TEST(EnergyModel, Eq3Decomposition) {
  // E_SOI = fga*alpha*C*V^2 + Ileak*V*tcyc, verified term by term.
  const auto m = test_module();
  c::ActivityVars act{0.3, 0.01, 0.4};
  const double expect = 0.3 * 0.4 * m.c_fg * 1.0 +
                        m.i_leak_low * 1.0 / 50e6;
  EXPECT_NEAR(c::energy_soi(m, act, kOp), expect, expect * 1e-12);
}

TEST(EnergyModel, Eq4Decomposition) {
  const auto m = test_module();
  c::ActivityVars act{0.3, 0.01, 0.4};
  const double t = 1.0 / 50e6;
  const double expect = 0.3 * 0.4 * m.c_fg + 0.01 * m.c_bg * 9.0 +
                        0.3 * m.i_leak_low * t +
                        0.7 * m.i_leak_high * t;
  EXPECT_NEAR(c::energy_soias(m, act, kOp), expect, expect * 1e-12);
}

TEST(EnergyModel, SoiLeakageIndependentOfActivity) {
  // Standard SOI leaks continuously — the Eq. 3 property the SOIAS
  // comparison hinges on.
  const auto m = test_module();
  const double quiet =
      c::energy_soi(m, {1e-4, 1e-5, 0.4}, kOp);
  const double t = 1.0 / 50e6;
  EXPECT_GT(quiet, 0.9 * m.i_leak_low * t);
}

TEST(EnergyModel, SoiasWinsAtLowActivityLosesAtHigh) {
  const auto m = test_module();
  // Mostly-idle block: SOIAS removes nearly all leakage.
  const c::ActivityVars idle{0.002, 0.0005, 0.4};
  EXPECT_LT(c::energy_soias(m, idle, kOp), c::energy_soi(m, idle, kOp));
  // Fully-active block with frantic mode switching: overhead only.
  const c::ActivityVars busy{1.0, 0.5, 0.4};
  EXPECT_GT(c::energy_soias(m, busy, kOp), c::energy_soi(m, busy, kOp));
}

TEST(EnergyModel, LogRatioSignMatchesComparison) {
  const auto m = test_module();
  const c::ActivityVars idle{0.002, 0.0005, 0.4};
  EXPECT_LT(c::log_energy_ratio(m, idle, kOp), 0.0);
  const c::ActivityVars busy{1.0, 0.5, 0.4};
  EXPECT_GT(c::log_energy_ratio(m, busy, kOp), 0.0);
}

TEST(EnergyModel, MtcmosBeatsSoiasWhenGatedLeakLower) {
  const auto m = test_module();
  const c::ActivityVars idle{0.002, 0.0005, 0.4};
  // Same overhead structure but the sleep wire swings vdd (not v_bg) and
  // the gated leakage is lower than high-VT leakage here.
  EXPECT_LT(c::energy_mtcmos(m, idle, kOp), c::energy_soias(m, idle, kOp));
}

TEST(EnergyModel, ChargePumpInefficiencyPenalizesBodyBias) {
  const auto m = test_module();
  const c::ActivityVars act{0.01, 0.005, 0.4};
  c::BurstOperatingPoint lossy = kOp;
  lossy.pump_efficiency = 0.25;
  EXPECT_GT(c::energy_body_bias(m, act, lossy),
            c::energy_body_bias(m, act, kOp));
  // At efficiency 1, body bias == SOIAS structurally.
  EXPECT_NEAR(c::energy_body_bias(m, act, kOp),
              c::energy_soias(m, act, kOp), 1e-25);
}

TEST(EnergyModel, ValidationRejectsNonsense) {
  auto m = test_module();
  m.c_fg = -1.0;
  EXPECT_THROW(c::energy_soi(m, {}, kOp), u::Error);
  c::ActivityVars bad;
  bad.fga = 2.0;
  EXPECT_THROW(c::energy_soi(test_module(), bad, kOp), u::Error);
}

TEST(ModuleExtraction, AdderParamsPhysicallySensible) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 16);
  const auto m =
      c::module_params_from_netlist(nl, lv::tech::soias(), 1.0, "adder");
  // Fractions of a picofarad of switched cap, tens of fF of back gate.
  EXPECT_GT(m.c_fg, 5e-14);
  EXPECT_LT(m.c_fg, 5e-12);
  EXPECT_GT(m.c_bg, 5e-15);
  EXPECT_LT(m.c_bg, m.c_fg);
  // Fig. 6: ~4 decades between the two threshold states.
  EXPECT_GT(m.i_leak_low / m.i_leak_high, 1e3);
  EXPECT_LT(m.i_leak_low / m.i_leak_high, 1e5);
}

TEST(ModuleExtraction, RejectsNonSoiasProcess) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 4);
  EXPECT_THROW(
      c::module_params_from_netlist(nl, lv::tech::soi_low_vt(), 1.0),
      u::Error);
}

TEST(RatioGrid, MonotoneInBgaAndBreakevenFound) {
  const auto m = test_module();
  const auto grid = c::energy_ratio_grid(m, 0.4, kOp, 1e-4, 1.0, 1e-4, 1.0,
                                         21);
  // Ratio rises with bga at fixed fga (more mode-switch overhead).
  for (std::size_t f = 0; f < grid.fga_axis.size(); f += 5) {
    for (std::size_t b = 1; b < grid.bga_axis.size(); ++b)
      EXPECT_GE(grid.log_ratio[b][f] + 1e-12, grid.log_ratio[b - 1][f]);
  }
  // A breakeven contour exists for at least some columns.
  const auto breakeven = grid.breakeven_bga();
  int found = 0;
  for (const auto& be : breakeven) found += be.has_value();
  EXPECT_GT(found, 3);
}

TEST(RatioGrid, CellsAreRowMajorWithFgaFast) {
  // Row b, column f holds the ratio at (fga_axis[f], bga_axis[b]); the
  // axes span different ranges, so a transposed unpack would show.
  const auto m = test_module();
  const auto grid = c::energy_ratio_grid(m, 0.4, kOp, 1e-4, 1.0, 1e-5, 1.0,
                                         7);
  ASSERT_EQ(grid.log_ratio.size(), 7u);
  for (std::size_t b = 0; b < 7; ++b) {
    ASSERT_EQ(grid.log_ratio[b].size(), 7u);
    for (std::size_t f = 0; f < 7; ++f)
      EXPECT_EQ(grid.log_ratio[b][f],
                c::log_energy_ratio(
                    m, {grid.fga_axis[f], grid.bga_axis[b], 0.4}, kOp))
          << "cell (" << b << "," << f << ")";
  }
}

TEST(RatioGrid, BreakevenBgaGrowsWithFga) {
  // The more a block idles (small fga), the less back-gate switching it
  // takes to win — the zero contour of Fig. 10 slopes up-right.
  const auto m = test_module();
  const auto grid = c::energy_ratio_grid(m, 0.4, kOp, 1e-4, 1.0, 1e-5, 1.0,
                                         31);
  const auto breakeven = grid.breakeven_bga();
  double prev = 0.0;
  int checked = 0;
  for (std::size_t f = 0; f < breakeven.size(); ++f) {
    if (!breakeven[f]) continue;
    if (checked > 0) {
      EXPECT_GE(*breakeven[f], prev * 0.5);
    }
    prev = *breakeven[f];
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(ApplicationPoint, SavingsArithmetic) {
  const auto m = test_module();
  const c::ActivityVars idle{0.002, 0.0005, 0.4};
  const auto pt = c::evaluate_application("adder", m, idle, kOp);
  EXPECT_NEAR(pt.savings_percent, 100.0 * (1.0 - pt.e_soias / pt.e_soi),
              1e-9);
  EXPECT_LT(pt.log_ratio, 0.0);
  EXPECT_GT(pt.savings_percent, 0.0);
}
