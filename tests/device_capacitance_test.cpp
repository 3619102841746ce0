#include "device/capacitance.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tech/process.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/units.hpp"

namespace dev = lv::device;
namespace u = lv::util;

namespace {

dev::CapacitanceModel model(double vt0 = 0.45) {
  dev::MosfetParams p;
  p.vt0 = vt0;
  return dev::CapacitanceModel{p, 2.0e-6};
}

}  // namespace

TEST(GateCap, BoundedByFloorAndCox) {
  const auto m = model();
  const double cmax = m.gate_cap_max();
  for (double v = 0.0; v <= 3.0; v += 0.1) {
    const double c = m.gate_cap(v);
    EXPECT_GE(c, 0.55 * cmax * 0.99);
    EXPECT_LE(c, cmax * 1.0001);
  }
}

TEST(GateCap, MonotoneRisingWithVoltage) {
  const auto m = model();
  double prev = 0.0;
  for (double v = 0.0; v <= 3.0; v += 0.05) {
    const double c = m.gate_cap(v);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(GateCapEffective, IncreasesWithVdd) {
  // This is exactly Fig. 1's message: switched capacitance grows with the
  // supply because more of the swing sits in inversion.
  const auto m = model();
  const double c1 = m.gate_cap_effective(1.0);
  const double c2 = m.gate_cap_effective(2.0);
  const double c3 = m.gate_cap_effective(3.0);
  EXPECT_GT(c2, c1);
  EXPECT_GT(c3, c2);
}

TEST(GateCapEffective, ApproachesCoxAtHighVdd) {
  const auto m = model();
  EXPECT_GT(m.gate_cap_effective(5.0), 0.85 * m.gate_cap_max());
}

TEST(GateChargeEnergy, ReducesToCeffVddSquared) {
  const auto m = model();
  const double vdd = 1.5;
  EXPECT_NEAR(m.gate_charge_energy(vdd),
              m.gate_cap_effective(vdd) * vdd * vdd, 1e-20);
}

TEST(GateChargeEnergy, ZeroAtZeroVdd) {
  EXPECT_DOUBLE_EQ(model().gate_charge_energy(0.0), 0.0);
}

TEST(JunctionCap, DecreasesWithReverseBias) {
  const auto m = model();
  const double c0 = m.junction_cap(0.0);
  const double c1 = m.junction_cap(1.0);
  const double c3 = m.junction_cap(3.0);
  EXPECT_GT(c0, c1);
  EXPECT_GT(c1, c3);
}

TEST(JunctionCap, EffectiveBetweenEndpointValues) {
  const auto m = model();
  const double ce = m.junction_cap_effective(2.0);
  EXPECT_LT(ce, m.junction_cap(0.0));
  EXPECT_GT(ce, m.junction_cap(2.0));
}

TEST(Caps, FemtofaradScale) {
  // Sanity: a couple-of-micron gate in this technology is a few fF —
  // the scale on Fig. 1's y axis.
  const auto m = model();
  EXPECT_GT(m.gate_cap_max(), 0.5 * u::femto);
  EXPECT_LT(m.gate_cap_max(), 50.0 * u::femto);
}

TEST(Caps, InputAndParasiticComposition) {
  const auto m = model();
  const double vdd = 1.0;
  EXPECT_NEAR(m.input_cap_effective(vdd),
              m.gate_cap_effective(vdd) + m.overlap_cap(), 1e-21);
  EXPECT_NEAR(m.drive_parasitic_effective(vdd),
              m.junction_cap_effective(vdd) + m.overlap_cap(), 1e-21);
}

TEST(Caps, RejectsBadWidth) {
  dev::MosfetParams p;
  EXPECT_THROW((dev::CapacitanceModel{p, 0.0}), u::Error);
}

// ---- the one-pass unit-inverter integrals ------------------------------

namespace {

// The builtin processes plus one whose PMOS gate and junction shapes
// differ from the NMOS (the unshared-sample path).
std::vector<lv::tech::Process> inverter_processes() {
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

// Mean of `c` over a 0 -> vdd swing, integrated the way the
// effective-capacitance integrals always have been.
double trapezoid_mean(const std::function<double(double)>& c, double vdd,
                      int panels) {
  if (vdd <= 0.0) return c(0.0);
  return u::integrate_trapezoid(c, 0.0, vdd, panels) / vdd;
}

const std::vector<double> kSupplies = {-1.0, 0.0,  1e-3, 0.05, 0.3,
                                       0.7,  1.0, 1.9,  2.5,  3.3};

}  // namespace

TEST(UnitInverterCaps, BuiltinProcessesShareShapes) {
  for (const auto& tech : inverter_processes()) {
    const auto n = tech.nmos_caps(1.0);
    const auto p = tech.pmos_caps(1.0);
    const bool skewed = tech.name == "soi_low_vt_skewed_pmos";
    EXPECT_EQ(n.same_gate_shape(p), !skewed) << tech.name;
    EXPECT_EQ(n.same_junction_shape(p), !skewed) << tech.name;
  }
}

TEST(UnitInverterCaps, ComponentsBitEqualToPerDeviceIntegrals) {
  for (const auto& tech : inverter_processes()) {
    const auto n = tech.nmos_caps(1.0);
    const auto p = tech.pmos_caps(1.0);
    for (const double vdd : kSupplies) {
      const auto caps = dev::unit_inverter_caps(n, p, vdd);
      const std::string where = tech.name + " vdd " + std::to_string(vdd);
      EXPECT_EQ(caps.n_input, n.input_cap_effective(vdd)) << where;
      EXPECT_EQ(caps.p_input, p.input_cap_effective(vdd)) << where;
      EXPECT_EQ(caps.n_parasitic, n.drive_parasitic_effective(vdd)) << where;
      EXPECT_EQ(caps.p_parasitic, p.drive_parasitic_effective(vdd)) << where;
      EXPECT_EQ(caps.fo1_load(),
                n.input_cap_effective(vdd) + p.input_cap_effective(vdd) +
                    n.drive_parasitic_effective(vdd) +
                    p.drive_parasitic_effective(vdd))
          << where;
      const auto via_process = tech.unit_inverter_caps(vdd);
      EXPECT_EQ(via_process.fo1_load(), caps.fo1_load()) << where;
    }
  }
}

TEST(UnitInverterCaps, IntegralsBitEqualToTrapezoidOfCurves) {
  for (const auto& tech : inverter_processes()) {
    for (const auto& m : {tech.nmos_caps(1.0), tech.pmos_caps(1.0)}) {
      for (const double vdd : kSupplies) {
        const std::string where = tech.name + " vdd " + std::to_string(vdd);
        EXPECT_EQ(m.gate_cap_effective(vdd),
                  trapezoid_mean([&](double v) { return m.gate_cap(v); },
                                 vdd, dev::kGateCapPanels))
            << where;
        EXPECT_EQ(m.junction_cap_effective(vdd),
                  trapezoid_mean([&](double v) { return m.junction_cap(v); },
                                 vdd, dev::kJunctionCapPanels))
            << where;
        EXPECT_EQ(m.gate_cap(vdd), m.gate_cap_from_shape(m.gate_shape(vdd)))
            << where;
        EXPECT_EQ(m.junction_cap(vdd),
                  m.junction_cap_from_shape(m.junction_shape(vdd)))
            << where;
      }
    }
  }
}
