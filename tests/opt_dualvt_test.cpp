#include "opt/dual_vt.hpp"

#include <gtest/gtest.h>

#include "circuit/cells.hpp"
#include "circuit/generators.hpp"

namespace c = lv::circuit;
namespace o = lv::opt;

namespace {

const lv::tech::Process& dual() {
  static const auto tech = lv::tech::dual_vt_mtcmos();
  return tech;
}

// Mixed-VT leakage as the optimizer always computed it: a fresh NMOS and
// PMOS per instance at that instance's threshold shift, summed in
// instance order.
double per_instance_leakage(const c::Netlist& nl, const lv::tech::Process& p,
                            double vdd, const std::vector<bool>& high_vt) {
  double acc = 0.0;
  for (c::InstanceId i = 0; i < nl.instance_count(); ++i) {
    const auto& info = c::cell_info(nl.instance(i).kind);
    const double shift = high_vt[i] ? p.high_vt_offset : 0.0;
    const auto n = p.make_nmos(1.0, shift);
    const auto pm = p.make_pmos(1.0, shift);
    acc += 0.5 * (n.off_current(vdd, 0.0, p.temp_k) * info.n_width_total /
                      info.n_stack +
                  pm.off_current(vdd, 0.0, p.temp_k) * info.p_width_total /
                      info.p_stack);
  }
  return acc;
}

}  // namespace

TEST(DualVt, LeakageBitEqualToPerInstanceEvaluation) {
  c::Netlist cla;
  c::build_carry_lookahead_adder(cla, 16);
  c::Netlist rca;
  c::build_ripple_carry_adder(rca, 8);
  for (const c::Netlist* nl : {&cla, &rca}) {
    for (const double vdd : {0.6, 1.0}) {
      const auto r = o::assign_dual_vt(*nl, dual(), vdd, 0.05);
      ASSERT_GT(r.high_vt_count, 0u);
      EXPECT_EQ(r.leakage_before,
                per_instance_leakage(
                    *nl, dual(), vdd,
                    std::vector<bool>(nl->instance_count(), false)));
      EXPECT_EQ(r.leakage_after,
                per_instance_leakage(*nl, dual(), vdd, r.use_high_vt));
    }
  }
}

TEST(DualVt, AssignmentCutsLeakageWithinPeriod) {
  c::Netlist nl;
  c::build_carry_lookahead_adder(nl, 16);
  const auto r = o::assign_dual_vt(nl, dual(), 1.0, 0.05);
  EXPECT_GT(r.high_vt_count, nl.instance_count() / 4);
  EXPECT_LE(r.delay_after, r.clock_period * 1.0000001);
  // Moving a sizable share of gates up 264 mV must cut leakage by >= 2x.
  EXPECT_LT(r.leakage_after, 0.5 * r.leakage_before);
}

TEST(DualVt, ZeroMarginStillFindsOffCriticalGates) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const auto r = o::assign_dual_vt(nl, dual(), 1.0, 0.0);
  // Even with no margin, the short side paths of the carry chain have
  // slack to burn.
  EXPECT_GT(r.high_vt_count, 0u);
  EXPECT_LE(r.delay_after, r.clock_period * 1.0000001);
}

TEST(DualVt, LargerMarginAllowsMoreHighVt) {
  c::Netlist nl;
  c::build_carry_lookahead_adder(nl, 16);
  const auto tight = o::assign_dual_vt(nl, dual(), 1.0, 0.0);
  const auto loose = o::assign_dual_vt(nl, dual(), 1.0, 0.5);
  EXPECT_GE(loose.high_vt_count, tight.high_vt_count);
  EXPECT_LE(loose.leakage_after, tight.leakage_after);
}

TEST(DualVt, ResultVectorsConsistent) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const auto r = o::assign_dual_vt(nl, dual(), 1.0, 0.1);
  std::size_t count = 0;
  for (const bool hv : r.use_high_vt) count += hv;
  EXPECT_EQ(count, r.high_vt_count);
  EXPECT_EQ(r.use_high_vt.size(), nl.instance_count());
}

TEST(Mtcmos, SizingMeetsPenaltyBound) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const double width = o::netlist_nmos_width(nl);
  const double peak = o::netlist_peak_current(nl, dual(), 1.0);
  const auto sized = o::size_sleep_transistor(dual(), 1.0, width, peak, 1.05);
  ASSERT_TRUE(sized.feasible);
  EXPECT_LE(sized.delay_penalty, 1.05 + 1e-6);
  EXPECT_GT(sized.sleep_width_mult, 0.0);
}

TEST(Mtcmos, StandbyLeakageCollapsesVsUnguarded) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const double width = o::netlist_nmos_width(nl);
  const double peak = o::netlist_peak_current(nl, dual(), 1.0);
  const auto sized = o::size_sleep_transistor(dual(), 1.0, width, peak, 1.05);
  ASSERT_TRUE(sized.feasible);
  // Paper Section 4: the high-VT series switch suppresses the low-VT
  // logic's sub-threshold conduction by orders of magnitude.
  EXPECT_GT(sized.unguarded_leakage / sized.standby_leakage, 100.0);
}

TEST(Mtcmos, TighterPenaltyNeedsWiderSleepDevice) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const double width = o::netlist_nmos_width(nl);
  const double peak = o::netlist_peak_current(nl, dual(), 1.0);
  const auto tight = o::size_sleep_transistor(dual(), 1.0, width, peak, 1.02);
  const auto loose = o::size_sleep_transistor(dual(), 1.0, width, peak, 1.20);
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_GT(tight.sleep_width_mult, loose.sleep_width_mult);
  // The wider (tight-penalty) footer leaks more in standby.
  EXPECT_GE(tight.standby_leakage * 1.0000001, loose.standby_leakage);
}
