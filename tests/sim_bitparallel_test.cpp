// Bit-parallel (64-lane) kernel suite.
//
// The contract under test is *per-lane bit-exactness*: every lane of a
// BitParallelSimulator must reproduce, exactly, the trajectory and
// activity accounting that a scalar Simulator produces when fed that
// lane's stimulus alone — on every fixture, with
// X-carrying lanes, and both word evaluation paths (verified direct
// operators and the per-lane LUT fallback). No tolerances: the word
// kernel shares the scalar kernel's (time, seq) event order, so equality
// is exact, not statistical. The fault kernel, which shares the word
// evaluation, is pinned against a serial interpreted oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "check/diag.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "circuit/netlist_io.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "reference_simulator.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

// Per-lane two-operand streams: streams[lane][step].
using LaneStreams = std::vector<std::vector<std::uint64_t>>;

LaneStreams random_lane_streams(std::size_t lanes, std::size_t steps,
                                int bits, std::uint64_t seed0) {
  LaneStreams out(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane)
    out[lane] = s::random_vectors(steps, bits, seed0 + lane);
  return out;
}

// Transposes one step of per-lane streams into the span set_bus takes.
std::vector<std::uint64_t> step_values(const LaneStreams& streams,
                                       std::size_t step) {
  std::vector<std::uint64_t> out(streams.size());
  for (std::size_t lane = 0; lane < streams.size(); ++lane)
    out[lane] = streams[lane][step];
  return out;
}

// Requires lane `lane` of `word` to match `scalar` exactly: every net
// value and the full per-net activity accounting.
void expect_lane_matches_scalar(const c::Netlist& nl,
                                const s::BitParallelSimulator& word,
                                unsigned lane, const s::Simulator& scalar) {
  const s::ActivityStats lane_stats = word.lane_stats(lane);
  const auto& want = scalar.stats();
  ASSERT_EQ(lane_stats.cycles(), want.cycles()) << "lane " << lane;
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(word.value(n, lane), scalar.value(n))
        << "net '" << nl.net(n).name << "' lane " << lane;
    ASSERT_EQ(lane_stats.transitions(n), want.transitions(n))
        << "net '" << nl.net(n).name << "' lane " << lane;
    ASSERT_EQ(lane_stats.settled_changes(n), want.settled_changes(n))
        << "net '" << nl.net(n).name << "' lane " << lane;
  }
}

}  // namespace

TEST(SimBitParallel, SixtyFourLanesMatchScalarPerLane_Adder) {
  // 64 distinct random streams through one word simulator; every lane
  // must equal a scalar run of its own stream.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 16);
  constexpr std::size_t kSteps = 24;
  const auto a = random_lane_streams(s::kLaneCount, kSteps, 16, 1000);
  const auto b = random_lane_streams(s::kLaneCount, kSteps, 16, 2000);
  s::BitParallelSimulator word{nl, {}, {.per_lane_stats = true}};
  for (std::size_t i = 0; i < kSteps; ++i) {
    word.set_bus(ports.a, step_values(a, i));
    word.set_bus(ports.b, step_values(b, i));
    word.settle();
  }
  for (unsigned lane = 0; lane < s::kLaneCount; ++lane) {
    s::Simulator scalar{nl};
    for (std::size_t i = 0; i < kSteps; ++i) {
      scalar.set_bus(ports.a, a[lane][i]);
      scalar.set_bus(ports.b, b[lane][i]);
      scalar.settle();
    }
    expect_lane_matches_scalar(nl, word, lane, scalar);
  }
}

TEST(SimBitParallel, MultiplierLanesMatchScalarPerLane) {
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 6);
  constexpr std::size_t kSteps = 16;
  const auto a = random_lane_streams(s::kLaneCount, kSteps, 6, 3000);
  const auto b = random_lane_streams(s::kLaneCount, kSteps, 6, 4000);
  s::BitParallelSimulator word{nl, {}, {.per_lane_stats = true}};
  for (std::size_t i = 0; i < kSteps; ++i) {
    word.set_bus(ports.a, step_values(a, i));
    word.set_bus(ports.b, step_values(b, i));
    word.settle();
  }
  // Spot-check a spread of lanes (the adder test sweeps all 64).
  for (const unsigned lane : {0u, 1u, 7u, 31u, 62u, 63u}) {
    s::Simulator scalar{nl};
    for (std::size_t i = 0; i < kSteps; ++i) {
      scalar.set_bus(ports.a, a[lane][i]);
      scalar.set_bus(ports.b, b[lane][i]);
      scalar.settle();
    }
    expect_lane_matches_scalar(nl, word, lane, scalar);
  }
}

TEST(SimBitParallel, PipelinedMacClockGatingLanesMatchScalarPerLane) {
  // Sequential path: clock_cycle, reset_flops, mid-run clock gating and
  // a broadcast force_net, with per-lane data streams.
  c::Netlist nl;
  const auto ports = c::build_pipelined_mac(nl, 8, "mac");
  constexpr std::size_t kSteps = 32;
  const auto a = random_lane_streams(s::kLaneCount, kSteps, 8, 5000);
  const auto b = random_lane_streams(s::kLaneCount, kSteps, 8, 6000);
  s::BitParallelSimulator word{nl, {}, {.per_lane_stats = true}};
  word.reset_flops(c::Logic::zero);
  for (std::size_t i = 0; i < kSteps; ++i) {
    if (i == 10) word.set_module_clock_enable("mac.acc", false);
    if (i == 16) word.set_module_clock_enable("mac.acc", true);
    word.set_bus(ports.a, step_values(a, i));
    word.set_bus(ports.b, step_values(b, i));
    word.clock_cycle();
  }
  word.force_net(ports.accumulator[0], c::Logic::one);
  word.clock_cycle();
  for (const unsigned lane : {0u, 5u, 33u, 63u}) {
    s::Simulator scalar{nl};
    scalar.reset_flops(c::Logic::zero);
    for (std::size_t i = 0; i < kSteps; ++i) {
      if (i == 10) scalar.set_module_clock_enable("mac.acc", false);
      if (i == 16) scalar.set_module_clock_enable("mac.acc", true);
      scalar.set_bus(ports.a, a[lane][i]);
      scalar.set_bus(ports.b, b[lane][i]);
      scalar.clock_cycle();
    }
    scalar.force_net(ports.accumulator[0], c::Logic::one);
    scalar.clock_cycle();
    expect_lane_matches_scalar(nl, word, lane, scalar);
  }
}

TEST(SimBitParallel, XCarryingLanesStayLaneExact) {
  // Lanes disagreeing on X vs 0/1 at the same input: X must propagate
  // per lane exactly as the scalar kernel propagates it, without leaking
  // into known lanes.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  // Lane value pattern for input bit j of operand a, step i:
  //   lane 0:     known from the vector stream
  //   lane 1:     X on odd input bits
  //   lane 2:     all X on operand a
  //   lane 3:     known, complemented stream
  const auto base = s::random_vectors(12, 8, 77);
  const auto lane_value = [&](unsigned lane, std::size_t i,
                              std::size_t j) -> c::Logic {
    const bool bit = (base[i] >> j) & 1;
    switch (lane) {
      case 1: return (j % 2 == 1) ? c::Logic::x : c::from_bool(bit);
      case 2: return c::Logic::x;
      case 3: return c::from_bool(!bit);
      default: return c::from_bool(bit);
    }
  };
  s::BitParallelSimulator word{nl, {}, {.per_lane_stats = true}};
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = 0; j < ports.a.size(); ++j) {
      s::LogicW w{0, 0};
      for (unsigned lane = 0; lane < 4; ++lane)
        w = s::with_lane(w, lane, lane_value(lane, i, j));
      word.set_input(ports.a[j], w);
    }
    word.set_bus_broadcast(ports.b, base[i] ^ 0x3c);
    word.settle();
  }
  for (unsigned lane = 0; lane < 4; ++lane) {
    s::Simulator scalar{nl};
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (std::size_t j = 0; j < ports.a.size(); ++j)
        scalar.set_input(ports.a[j], lane_value(lane, i, j));
      scalar.set_bus(ports.b, base[i] ^ 0x3c);
      scalar.settle();
    }
    expect_lane_matches_scalar(nl, word, lane, scalar);
  }
  // An all-X operand must leave lane 2's sum X but lane 0's known.
  std::uint64_t out = 0;
  EXPECT_TRUE(word.read_bus(ports.sum, 0, out));
  EXPECT_FALSE(word.read_bus(ports.sum, 2, out));
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

TEST(SimBitParallel, LutFallbackMatchesDirectOperators) {
  // Differential test of the two word evaluation paths: forcing every
  // cell through the per-lane LUT fallback must not change a single
  // counter or value.
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 5);
  const auto a = random_lane_streams(s::kLaneCount, 12, 5, 7000);
  const auto b = random_lane_streams(s::kLaneCount, 12, 5, 8000);
  s::BitParallelSimulator direct{nl, {}, {.per_lane_stats = true}};
  s::BitParallelSimulator fallback{
      nl, {}, {.per_lane_stats = true, .force_lut_fallback = true}};
  for (std::size_t i = 0; i < 12; ++i) {
    for (auto* sim : {&direct, &fallback}) {
      sim->set_bus(ports.a, step_values(a, i));
      sim->set_bus(ports.b, step_values(b, i));
      sim->settle();
    }
  }
  EXPECT_EQ(direct.stats().cycles(), fallback.stats().cycles());
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(direct.value(n), fallback.value(n))
        << "net '" << nl.net(n).name << "'";
    ASSERT_EQ(direct.stats().transitions(n), fallback.stats().transitions(n))
        << "net '" << nl.net(n).name << "'";
    ASSERT_EQ(direct.stats().settled_changes(n),
              fallback.stats().settled_changes(n))
        << "net '" << nl.net(n).name << "'";
  }
}

TEST(SimBitParallel, ActiveLaneMaskGatesAccountingOnly) {
  // Inactive lanes keep simulating (values identical) but contribute
  // neither transitions nor cycles to the aggregate stats.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  const auto a = random_lane_streams(s::kLaneCount, 10, 8, 9000);
  const auto b = random_lane_streams(s::kLaneCount, 10, 8, 9100);
  s::BitParallelSimulator all{nl, {}, {.per_lane_stats = true}};
  s::BitParallelSimulator half{nl, {}, {.per_lane_stats = true}};
  const std::uint64_t mask = 0x00000000ffffffffull;
  half.set_active_lanes(mask);
  for (std::size_t i = 0; i < 10; ++i) {
    for (auto* sim : {&all, &half}) {
      sim->set_bus(ports.a, step_values(a, i));
      sim->set_bus(ports.b, step_values(b, i));
      sim->settle();
    }
  }
  EXPECT_EQ(all.stats().cycles(), 10u * s::kLaneCount);
  EXPECT_EQ(half.stats().cycles(), 10u * 32u);
  for (c::NetId n = 0; n < nl.net_count(); ++n) {
    ASSERT_EQ(all.value(n), half.value(n)) << nl.net(n).name;
    // Aggregate of the gated run equals the sum of its active lanes'
    // counters (which the mask does not distort).
    std::uint64_t lane_sum = 0;
    for (unsigned lane = 0; lane < 32; ++lane)
      lane_sum += all.lane_stats(lane).transitions(n);
    ASSERT_EQ(half.stats().transitions(n), lane_sum) << nl.net(n).name;
  }
}

TEST(SimBitParallel, LaneChunkedWorkloadMatchesScalarReplayExactly) {
  // The lane-chunked workload runner primes every lane on its
  // predecessor vector, so the aggregate ActivityStats must equal a
  // serial scalar replay *bit for bit* — per-net transitions, settled
  // changes, cycle count, and therefore mean alpha and the Fig. 8
  // histogram — at vector counts that exercise chunk length 1, a ragged
  // tail, and long chunks.
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  for (const std::size_t n :
       {std::size_t{64}, std::size_t{100}, std::size_t{1000}}) {
    const auto a = s::random_vectors(n, 8, 41);
    const auto b = s::random_vectors(n, 8, 42);
    s::BitParallelSimulator word{nl};
    s::run_two_operand_workload(word, ports.a, ports.b, a, b);
    s::Simulator scalar{nl};
    s::run_two_operand_workload(scalar, ports.a, ports.b, a, b);
    ASSERT_EQ(word.stats().cycles(), n);
    ASSERT_EQ(scalar.stats().cycles(), n);
    for (c::NetId net = 0; net < nl.net_count(); ++net) {
      ASSERT_EQ(word.stats().transitions(net), scalar.stats().transitions(net))
          << "net '" << nl.net(net).name << "' n = " << n;
      ASSERT_EQ(word.stats().settled_changes(net),
                scalar.stats().settled_changes(net))
          << "net '" << nl.net(net).name << "' n = " << n;
    }
    EXPECT_GT(s::mean_alpha(word), 0.0);
    EXPECT_EQ(s::mean_alpha(word), s::mean_alpha(scalar));
  }
}

TEST(SimBitParallel, RejectsBadLaneAndBusUsage) {
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  s::BitParallelSimulator sim{nl};
  std::uint64_t out = 0;
  EXPECT_THROW(sim.read_bus(ports.sum, 64, out), lv::util::Error);
  EXPECT_THROW(sim.lane_stats(0), lv::util::Error);  // per_lane_stats off
  const std::vector<std::uint64_t> too_many(65, 0);
  EXPECT_THROW(sim.set_bus(ports.a, too_many), lv::util::Error);
  EXPECT_THROW(sim.set_input(ports.sum[0], c::Logic::one), lv::util::Error);
  EXPECT_THROW(sim.force_net(static_cast<c::NetId>(nl.net_count()),
                             c::Logic::one),
               lv::util::Error);
}

TEST(SimBitParallel, EventBudgetIsCodedAndTripsOnTheSameSettleAsScalar) {
  // With every lane driven alike, a word settle processes exactly the
  // scalar settle's events, so both kernels trip the same budget on the
  // same settle, with the coded sim.event_budget diagnostic.
  c::Netlist nl;
  const auto ports = c::build_array_multiplier(nl, 6);
  const auto drive = [&](auto& sim, std::uint64_t a, std::uint64_t b) {
    if constexpr (std::is_same_v<std::decay_t<decltype(sim)>, s::Simulator>) {
      sim.set_bus(ports.a, a);
      sim.set_bus(ports.b, b);
    } else {
      sim.set_bus_broadcast(ports.a, a);
      sim.set_bus_broadcast(ports.b, b);
    }
    sim.settle();
  };
  // Events of the priming settle (0 x 0 from X) and of a glitchy next one.
  std::uint64_t priming = 0, events = 0;
  {
    const bool was = lv::obs::enabled();
    lv::obs::set_enabled(true);
    auto& processed =
        lv::obs::Registry::global().counter("sim.events_processed");
    s::Simulator sim{nl};
    std::uint64_t before = processed.value();
    drive(sim, 0, 0);
    priming = processed.value() - before;
    before = processed.value();
    drive(sim, 0x3f, 0x2b);
    events = processed.value() - before;
    lv::obs::set_enabled(was);
  }
  ASSERT_GT(events, priming);  // a budget of events - 1 passes priming
  const auto outcome = [&](auto& sim) -> std::string {
    try {
      drive(sim, 0, 0);
    } catch (const lv::check::InputError& e) {
      return "priming: " + e.code();
    }
    try {
      drive(sim, 0x3f, 0x2b);
    } catch (const lv::check::InputError& e) {
      return e.code();
    }
    return "ok";
  };
  for (const std::uint64_t budget : {events, events - 1}) {
    const s::SimConfig config{budget};
    s::Simulator scalar{nl, config};
    s::BitParallelSimulator word{nl, config};
    const std::string want = budget == events ? "ok" : "sim.event_budget";
    EXPECT_EQ(outcome(scalar), want) << "budget " << budget;
    EXPECT_EQ(outcome(word), want) << "budget " << budget;
  }
}
