// Golden equivalence suite for the compiled simulation kernel.
//
// The compiled engine (SimGraph CSR arrays + LUT evaluation + the paged
// FIFO event queue) must be *bit-identical* in its activity
// accounting to the retained interpreted engine
// (tests/reference_simulator.hpp) — same per-net transition counts, same
// settled-change counts, same glitch fractions, same final net values —
// on every fixture. No tolerances anywhere: the
// whole point of preserving (time, seq) event order is exact equality.
//
// Fixtures: the ripple-carry adder of Figs. 8-9, the array multiplier of
// Tables 1-3, a Wallace-tree multiplier (glitch-heavy waves and wide
// fanout, so the scheduler's runs cross page ends), and the pipelined
// multiply-accumulate datapath (the
// register-multiply-accumulate core that the IDEA workload profile
// exercises), the last with clock gating toggled mid-run and a forced
// internal net to cover the fault-injection path.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "exec/thread_pool.hpp"
#include "reference_simulator.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/word_eval.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

// Runs `stimulus` against both engines and requires exact equality of
// the full activity accounting and of every net value.
template <class Stimulus>
void expect_bit_identical(const c::Netlist& nl, Stimulus&& stimulus) {
  s::Simulator compiled{nl};
  s::testing::ReferenceSimulator reference{nl};
  stimulus(compiled);
  stimulus(reference);

  const auto& got = compiled.stats();
  const auto& want = reference.stats();
  ASSERT_EQ(got.cycles(), want.cycles);
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(got.transitions(n), want.transitions[n])
        << "net '" << nl.net(n).name << "'";
    ASSERT_EQ(got.settled_changes(n), want.settled_changes[n])
        << "net '" << nl.net(n).name << "'";
    ASSERT_EQ(compiled.value(n), reference.value(n))
        << "net '" << nl.net(n).name << "'";
    // glitch_fraction is derived from the two counters; require the
    // doubles to agree exactly too (operator==, no tolerance).
    const auto toggles = want.transitions[n];
    if (toggles != 0) {
      const auto necessary = std::min(toggles, want.settled_changes[n]);
      const double ref_frac = static_cast<double>(toggles - necessary) /
                              static_cast<double>(toggles);
      ASSERT_EQ(got.glitch_fraction(n), ref_frac)
          << "net '" << nl.net(n).name << "'";
    }
  }
}

}  // namespace

TEST(SimKernelEquivalence, RippleCarryAdderAllDelayModels) {
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 16);
  const auto a = s::random_vectors(128, 16, 11);
  const auto b = s::random_vectors(128, 16, 12);
  expect_bit_identical(nl, [&](auto& sim) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      sim.set_bus(ports.a, a[i]);
      sim.set_bus(ports.b, b[i]);
      sim.settle();
    }
  });
}

TEST(SimKernelEquivalence, ArrayMultiplierAllDelayModels) {
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 6);
  const auto a = s::random_vectors(96, 6, 21);
  const auto b = s::random_vectors(96, 6, 22);
  expect_bit_identical(nl, [&](auto& sim) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      sim.set_bus(ports.a, a[i]);
      sim.set_bus(ports.b, b[i]);
      sim.settle();
    }
  });
}

TEST(SimKernelEquivalence, WallaceMultiplierAllDelayModels) {
  c::Netlist nl;
  const auto ports = c::build_wallace_multiplier(nl, 8);
  const auto a = s::random_vectors(64, 8, 41);
  const auto b = s::random_vectors(64, 8, 42);
  expect_bit_identical(nl, [&](auto& sim) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      sim.set_bus(ports.a, a[i]);
      sim.set_bus(ports.b, b[i]);
      sim.settle();
    }
  });
}

TEST(SimKernelEquivalence, PipelinedMacWithClockGatingAllDelayModels) {
  c::Netlist nl;
  const auto ports = c::build_pipelined_mac(nl, 8, "mac");
  const auto a = s::random_vectors(64, 8, 31);
  const auto b = s::random_vectors(64, 8, 32);
  expect_bit_identical(nl, [&](auto& sim) {
    sim.reset_flops(c::Logic::zero);
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Toggle gated clocks mid-run (paper Fig. 7 shutdown) so the
      // module-freeze path is part of the contract.
      if (i == 20) sim.set_module_clock_enable("mac.acc", false);
      if (i == 30) sim.set_module_clock_enable("mac.acc", true);
      if (i == 40) sim.set_module_clock_enable("mac.in_regs_a", false);
      if (i == 50) sim.set_module_clock_enable("mac.in_regs_a", true);
      sim.set_bus(ports.a, a[i]);
      sim.set_bus(ports.b, b[i]);
      sim.clock_cycle();
    }
    // Fault-injection path: force an internal net, propagate, resume.
    sim.force_net(ports.accumulator[0], c::Logic::one);
    sim.clock_cycle();
    sim.clock_cycle();
  });
}

TEST(SimKernelEquivalence, SettleWithoutChangesKeepsAccountingAligned) {
  // Repeated settles with identical inputs must count cycles but no
  // transitions in both engines (exercises the O(dirty) finish_cycle
  // against the reference's O(nets) scan when the dirty set is empty).
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  expect_bit_identical(nl, [&](auto& sim) {
    sim.set_bus(ports.a, 0x5a);
    sim.set_bus(ports.b, 0xa5);
    for (int i = 0; i < 5; ++i) sim.settle();
  });
}

TEST(SimKernelEquivalence, WordKernelXLanesMatchInterpretedOraclePerLane) {
  // Three-engine closure with X-carrying stimulus: a lane of the fault
  // kernel's word evaluation (a levelized WordEvaluator pass), a scalar
  // compiled run, and the retained interpreted oracle must settle to the
  // same values when lanes disagree on X vs 0/1 at the same inputs. The
  // oracle leg is what anchors word evaluation's X-propagation to the
  // historical semantics rather than to the scalar compiled kernel alone.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  const auto graph = s::SimGraph::compile(nl);
  const s::WordEvaluator eval{*graph};
  const auto base = s::random_vectors(10, 8, 55);
  // Per-lane input for operand-a bit j: lane 0 known, lane 1 X on even
  // bits, lane 2 all X, lane 3 complemented known.
  const auto lane_value = [&](unsigned lane, std::size_t i,
                              std::size_t j) -> c::Logic {
    const bool bit = (base[i] >> j) & 1;
    switch (lane) {
      case 1: return (j % 2 == 0) ? c::Logic::x : c::from_bool(bit);
      case 2: return c::Logic::x;
      case 3: return c::from_bool(!bit);
      default: return c::from_bool(bit);
    }
  };
  std::vector<s::Simulator> compiled(4, s::Simulator{graph});
  std::vector<s::testing::ReferenceSimulator> oracle(
      4, s::testing::ReferenceSimulator{nl});
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::vector<s::LogicW> words(nl.net_count());  // undriven nets X
    for (std::size_t j = 0; j < ports.a.size(); ++j)
      for (unsigned lane = 0; lane < 4; ++lane)
        words[ports.a[j]] =
            s::with_lane(words[ports.a[j]], lane, lane_value(lane, i, j));
    for (std::size_t j = 0; j < ports.b.size(); ++j)
      words[ports.b[j]] = s::broadcast(c::from_bool((base[i] >> j) & 1));
    for (const c::InstanceId id : nl.topo_order())
      words[graph->nodes()[id].output] = eval.evaluate(id, words.data());
    for (unsigned lane = 0; lane < 4; ++lane) {
      const auto drive = [&](auto& sim) {
        for (std::size_t j = 0; j < ports.a.size(); ++j)
          sim.set_input(ports.a[j], lane_value(lane, i, j));
        sim.set_bus(ports.b, base[i]);
        sim.settle();
      };
      drive(compiled[lane]);
      drive(oracle[lane]);
      for (c::NetId n = 0; n < nl.net_count(); ++n) {
        ASSERT_EQ(s::lane_of(words[n], lane), oracle[lane].value(n))
            << "net '" << nl.net(n).name << "' lane " << lane;
        ASSERT_EQ(s::lane_of(words[n], lane), compiled[lane].value(n))
            << "net '" << nl.net(n).name << "' lane " << lane;
      }
    }
  }
}

TEST(SimKernelEquivalence, FaultCampaignCoverageUnchangedAtAllWidths) {
  // The compiled kernel (one shared SimGraph across all fault machines)
  // must leave campaign verdicts untouched, and the lv::exec pinning
  // strategy extends to it: identical coverage at thread widths 1/2/8.
  // rca10 grades every block inline; mul12's first block is above the
  // pool threshold, so it covers the pooled path too.
  c::Netlist rca;
  c::build_ripple_carry_adder(rca, 10);
  c::Netlist mul;
  c::build_array_multiplier(mul, 12);
  for (const auto& [nl, count] : {std::pair{&rca, 48}, std::pair{&mul, 256}}) {
    const auto vecs =
        s::random_vectors(static_cast<std::size_t>(count),
                          static_cast<int>(nl->primary_inputs().size()), 7);

    lv::exec::set_thread_count(1);
    const auto reference = s::fault_coverage(*nl, vecs);
    EXPECT_GT(reference.detected, 0u);
    for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
      lv::exec::set_thread_count(width);
      const auto got = s::fault_coverage(*nl, vecs);
      EXPECT_EQ(got.total_faults, reference.total_faults) << "width " << width;
      EXPECT_EQ(got.detected, reference.detected) << "width " << width;
      EXPECT_EQ(got.coverage, reference.coverage) << "width " << width;
      ASSERT_EQ(got.undetected.size(), reference.undetected.size())
          << "width " << width;
      for (std::size_t k = 0; k < got.undetected.size(); ++k) {
        EXPECT_EQ(got.undetected[k].net, reference.undetected[k].net);
        EXPECT_EQ(got.undetected[k].stuck_at,
                  reference.undetected[k].stuck_at);
      }
    }
  }
  lv::exec::set_thread_count(0);
}
