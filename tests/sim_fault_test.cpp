#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;
using c::Logic;

TEST(FaultEnumeration, TwoFaultsPerGateNet) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4);
  const auto faults = s::enumerate_faults(nl);
  // Gate-driven nets = instance count (each gate drives one net).
  EXPECT_EQ(faults.size(), 2 * nl.instance_count());
}

TEST(FaultCoverage, ExhaustiveVectorsDetectNearlyEverything) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 3);
  // All 64 input combinations over the 6 inputs.
  std::vector<std::uint64_t> vectors;
  for (std::uint64_t v = 0; v < 64; ++v) vectors.push_back(v);
  const auto result = s::fault_coverage(nl, vectors);
  EXPECT_EQ(result.total_faults,
            result.detected + result.undetected.size());
  // Two faults are structurally undetectable: the tied-0 carry-in net
  // stuck at 0, and the first full adder's carry-propagate AND (constant
  // 0 with cin tied low) stuck at 0 — both match fault-free behaviour.
  EXPECT_EQ(result.undetected.size(), 2u);
  EXPECT_GE(result.coverage, 0.93);
}

TEST(FaultCoverage, MoreVectorsNeverHurt) {
  c::Netlist nl;
  c::build_carry_lookahead_adder(nl, 4);
  const auto few = s::fault_coverage(nl, s::random_vectors(4, 8, 3));
  const auto many = s::fault_coverage(nl, s::random_vectors(64, 8, 3));
  EXPECT_GE(many.coverage, few.coverage);
  EXPECT_GT(many.coverage, 0.7);
}

TEST(FaultCoverage, SingleVectorDetectsLittleOnWideLogic) {
  c::Netlist nl;
  c::build_array_multiplier(nl, 4);
  const auto result = s::fault_coverage(nl, {0x00});  // all-zero inputs
  EXPECT_LT(result.coverage, 0.6);
  EXPECT_FALSE(result.undetected.empty());
}

TEST(FaultCoverage, RedundantFaultReportedAsUncovered) {
  // out = a OR (a AND b): the AND output stuck at 0 is logically
  // redundant — out equals a either way — so no vector can detect it.
  // The report must list it as uncovered rather than inflate coverage.
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto ab = nl.add_gate(c::CellKind::and2, "g_and", {a, b});
  const auto out = nl.add_gate(c::CellKind::or2, "g_or", {a, ab});
  nl.mark_output(out);
  const auto result = s::fault_coverage(nl, {0, 1, 2, 3});  // exhaustive
  EXPECT_LT(result.coverage, 1.0);
  bool redundant_listed = false;
  for (const auto& f : result.undetected)
    redundant_listed |= (f.net == ab && f.stuck_at == Logic::zero);
  EXPECT_TRUE(redundant_listed)
      << "redundant and-output stuck-at-0 missing from undetected list";
  EXPECT_EQ(result.total_faults,
            result.detected + result.undetected.size());
}

TEST(FaultCoverage, RejectsSequentialNetlists) {
  c::Netlist nl;
  c::build_register_bank(nl, c::CellKind::dff, 4);
  EXPECT_THROW(s::fault_coverage(nl, {0}), lv::util::Error);
}

TEST(FaultCoverage, UndrivenOutputIsAnXInTheGoodMachine) {
  // An output net nothing drives reads X in the good machine, so no fault
  // can be graded against it.
  c::Netlist nl;
  const auto a = nl.add_input("a");
  nl.mark_output(nl.add_gate(c::CellKind::inv, "g", {a}));
  nl.mark_output(nl.add_net("floating"));
  try {
    s::fault_coverage(nl, {0, 1});
    FAIL() << "expected throw";
  } catch (const lv::util::Error& e) {
    EXPECT_STREQ(e.what(), "fault_coverage: X at outputs of the good machine");
  }
}

TEST(FaultCoverage, GatelessNetlistLeavesAnUnusedNetUndetected) {
  // No gates, one undriven net that nothing reads: its faults are
  // activated (the good word is X) but reach no output.
  c::Netlist nl;
  nl.mark_output(nl.add_input("a"));
  const auto n = nl.add_net("n");
  const auto result = s::fault_coverage(nl, {0, 1});
  EXPECT_EQ(result.total_faults, 2u);
  EXPECT_EQ(result.detected, 0u);
  ASSERT_EQ(result.undetected.size(), 2u);
  EXPECT_EQ(result.undetected[0].net, n);
  EXPECT_EQ(result.undetected[1].net, n);
  EXPECT_EQ(result.coverage, 0.0);
}
