#include "opt/dual_vt.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "circuit/cells.hpp"
#include "circuit/generators.hpp"
#include "reference_dual_vt.hpp"
#include "tech/techfile.hpp"

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

// ---- bit-identity against the retained full-STA greedy -------------------

namespace {

using Builder = std::function<void(c::Netlist&)>;

std::vector<std::pair<std::string, Builder>> pinned_designs() {
  return {
      {"rca8", [](c::Netlist& nl) { c::build_ripple_carry_adder(nl, 8); }},
      {"rca32", [](c::Netlist& nl) { c::build_ripple_carry_adder(nl, 32); }},
      {"cla16",
       [](c::Netlist& nl) { c::build_carry_lookahead_adder(nl, 16); }},
      {"csel16", [](c::Netlist& nl) { c::build_carry_select_adder(nl, 16); }},
      {"ks16", [](c::Netlist& nl) { c::build_kogge_stone_adder(nl, 16); }},
      {"ks32", [](c::Netlist& nl) { c::build_kogge_stone_adder(nl, 32); }},
      {"alu16", [](c::Netlist& nl) { c::build_alu(nl, 16); }},
      {"shifter16", [](c::Netlist& nl) { c::build_barrel_shifter(nl, 16); }},
      {"mul8", [](c::Netlist& nl) { c::build_array_multiplier(nl, 8); }},
      {"wmul8", [](c::Netlist& nl) { c::build_wallace_multiplier(nl, 8); }},
      {"cskip32", [](c::Netlist& nl) { c::build_carry_skip_adder(nl, 32); }},
      // Flops: their D pins are timing endpoints and their outputs start
      // paths at 0.
      {"mac4", [](c::Netlist& nl) { c::build_pipelined_mac(nl, 4); }},
  };
}

void expect_matches_reference(const c::Netlist& nl,
                              const lv::tech::Process& tech, double vdd,
                              double margin, const std::string& label) {
  const auto got = o::assign_dual_vt(nl, tech, vdd, margin);
  for (const int batch : {1, 8, 16}) {
    const auto ref =
        o::testing::reference_assign_dual_vt(nl, tech, vdd, margin, batch);
    const std::string where = label + " vdd=" + std::to_string(vdd) +
                              " margin=" + std::to_string(margin) +
                              " batch=" + std::to_string(batch);
    EXPECT_EQ(got.use_high_vt, ref.use_high_vt) << where;
    EXPECT_EQ(got.high_vt_count, ref.high_vt_count) << where;
    EXPECT_EQ(got.delay_before, ref.delay_before) << where;
    EXPECT_EQ(got.delay_after, ref.delay_after) << where;
    EXPECT_EQ(got.leakage_before, ref.leakage_before) << where;
    EXPECT_EQ(got.leakage_after, ref.leakage_after) << where;
    EXPECT_EQ(got.clock_period, ref.clock_period) << where;
    EXPECT_EQ(got.status.converged, ref.status.converged) << where;
    EXPECT_EQ(got.status.residual, ref.status.residual) << where;
    // Same decisions at batch 8: one arrival pass here per full STA there.
    if (batch == 8) {
      EXPECT_EQ(got.status.iterations, ref.status.iterations) << where;
    }
  }
}

}  // namespace

TEST(DualVtReference, BitEqualOnGeneratedDesigns) {
  for (const auto& [name, build] : pinned_designs()) {
    c::Netlist nl;
    build(nl);
    for (const double vdd : {0.5, 1.0, 1.5})
      for (const double margin : {0.0, 0.02, 0.05, 0.5})
        expect_matches_reference(nl, dual(), vdd, margin, name);
  }
}

TEST(DualVtReference, BitEqualWithAnotherHighVtOffset) {
  // A techfile variant of the dual-VT process with a smaller high-VT
  // step: more gates fit, so other batches fail and retry.
  std::string text = lv::tech::to_techfile(dual());
  const std::string key = "high_vt_offset = ";
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, text.find('\n', at) - at, key + "0.12");
  const auto tech = lv::tech::parse_techfile(text);
  ASSERT_EQ(tech.high_vt_offset, 0.12);
  for (const auto& [name, build] : pinned_designs()) {
    c::Netlist nl;
    build(nl);
    for (const double vdd : {0.7, 1.2})
      for (const double margin : {0.0, 0.05})
        expect_matches_reference(nl, tech, vdd, margin, name + "/vt0.12");
  }
}

TEST(DualVt, NonFiniteDelayIsACodedInputError) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 2);
  auto poisoned = dual();
  poisoned.wire_cap_per_m = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)o::assign_dual_vt(nl, poisoned, 1.0, 0.05);
    FAIL() << "expected InputError";
  } catch (const lv::check::InputError& e) {
    EXPECT_EQ(e.code(), lv::check::codes::sta_nonfinite);
    EXPECT_NE(std::string(e.what()).find("gate '"), std::string::npos);
  }
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
