#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist_io.hpp"
#include "reference_simulator.hpp"
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

namespace {

// Serial stuck-at grader over the interpreted reference engine, the
// oracle for fault_coverage: one fresh machine per fault; after each
// vector settles, the stuck value is forced and propagated, and the
// outputs are compared with the good machine's.
s::CoverageResult oracle_coverage(const c::Netlist& nl,
                                  const std::vector<std::uint64_t>& vecs) {
  const c::Bus inputs = nl.primary_inputs();
  const c::Bus outputs = nl.primary_outputs();
  std::vector<std::uint64_t> golden;
  s::testing::ReferenceSimulator good{nl};
  for (const auto v : vecs) {
    good.set_bus(inputs, v);
    good.settle();
    std::uint64_t out = 0;
    EXPECT_TRUE(good.read_bus(outputs, out));
    golden.push_back(out);
  }
  s::CoverageResult r;
  const auto faults = s::enumerate_faults(nl);
  r.total_faults = faults.size();
  r.first_detections.assign(vecs.size(), 0);
  for (const s::Fault& f : faults) {
    s::testing::ReferenceSimulator bad{nl};
    std::size_t i = 0;
    for (; i < vecs.size(); ++i) {
      bad.set_bus(inputs, vecs[i]);
      bad.settle();
      bad.force_net(f.net, f.stuck_at);
      std::uint64_t out = 0;
      if (!bad.read_bus(outputs, out) || out != golden[i]) break;
    }
    if (i < vecs.size()) {
      ++r.detected;
      ++r.first_detections[i];
    } else {
      r.undetected.push_back(f);
    }
  }
  r.coverage = static_cast<double>(r.detected) /
               static_cast<double>(r.total_faults);
  return r;
}

}  // namespace

TEST(SimBitParallel, FaultKernelsAgreeExactly) {
  // The 64-vector-per-word campaign must reproduce the serial
  // interpreted oracle verbatim: counts, undetected list, and the
  // per-vector first-detection profile. The vector counts straddle the
  // 64-vector block boundary (partial first block, exactly one block,
  // one vector into the second, a partial third block).
  struct Case {
    const char* name;
    c::Netlist nl;
    std::vector<std::uint64_t> vecs;
  };
  std::vector<Case> cases;
  constexpr std::array<std::size_t, 6> kCounts{1, 40, 63, 64, 65, 130};
  const auto random_case = [&](const char* name, auto build) {
    for (const std::size_t n : kCounts) {
      Case k{name, {}, {}};
      build(k.nl);
      k.vecs = s::random_vectors(
          n, static_cast<int>(k.nl.primary_inputs().size()), 17);
      cases.push_back(std::move(k));
    }
  };
  random_case("rca8",
              [](c::Netlist& nl) { c::build_ripple_carry_adder(nl, 8); });
  random_case("cla8",
              [](c::Netlist& nl) { c::build_carry_lookahead_adder(nl, 8); });
  random_case("mul4",
              [](c::Netlist& nl) { c::build_array_multiplier(nl, 4); });
  random_case("alu4", [](c::Netlist& nl) { c::build_alu(nl, 4); });  // MUX2
  random_case("csel8", [](c::Netlist& nl) {  // TIE0 and TIE1 carry-ins
    c::build_carry_select_adder(nl, 8);
  });
  // mul10's block (~1 100 live faults x ~560 gates) is above the
  // campaign's pool threshold, so it is graded one exec index per fault;
  // every block of the circuits above is one index. Two vectors keep
  // the oracle's ~1 100 fault machines cheap.
  {
    Case k{"mul10", {}, {}};
    c::build_array_multiplier(k.nl, 10);
    k.vecs = s::random_vectors(2, 20, 17);
    cases.push_back(std::move(k));
  }
  // Net ids out of topological order: y is declared before m, its
  // driver's input, so a fault machine that re-propagates m after y was
  // forced can lose y's stuck value.
  const char* rev =
      "lvnet 1\ninput a\ninput b\nnet y\nnet m\n"
      "gate g1 AND2 m a b\ngate g2 BUF y m\noutput y\n";
  for (const std::size_t n : {std::size_t{16}, std::size_t{64},
                              std::size_t{65}})
    cases.push_back({"rev", c::parse_netlist_text(rev),
                     s::random_vectors(n, 2, 3)});

  for (const Case& k : cases) {
    SCOPED_TRACE(::testing::Message() << k.name << " x" << k.vecs.size());
    const auto want = oracle_coverage(k.nl, k.vecs);
    const auto got = s::fault_coverage(k.nl, k.vecs);
    EXPECT_EQ(got.total_faults, want.total_faults);
    EXPECT_EQ(got.detected, want.detected);
    EXPECT_EQ(got.coverage, want.coverage);
    ASSERT_EQ(got.undetected.size(), want.undetected.size());
    for (std::size_t f = 0; f < got.undetected.size(); ++f) {
      EXPECT_EQ(got.undetected[f].net, want.undetected[f].net);
      EXPECT_EQ(got.undetected[f].stuck_at, want.undetected[f].stuck_at);
    }
    EXPECT_EQ(got.first_detections, want.first_detections);
  }
}

TEST(SimBitParallel, FirstDetectionsProfileSumsToDetected) {
  // Exhaustive vectors on a small adder: the first-detection histogram
  // attributes every detected fault exactly once, and is front-loaded
  // (later vectors add less marginal coverage than the first).
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 3);
  const auto vecs = s::counting_vectors(
      1u << nl.primary_inputs().size(),
      static_cast<int>(nl.primary_inputs().size()));
  const auto result = s::fault_coverage(nl, vecs);
  std::uint64_t sum = 0;
  for (const auto c : result.first_detections) sum += c;
  EXPECT_EQ(sum, result.detected);
  EXPECT_GT(result.first_detections[0], 0u);
}
