// 64-lane word evaluation suite (sim::WordEvaluator, the gate
// evaluation of the fault kernel).
//
// The contract under test is *per-lane bit-exactness*. Every
// combinational kind's direct word operator must reproduce
// circuit::evaluate_cell on every three-valued input combination, in
// every lane. For every combinational instance of a generated netlist,
// the evaluator must produce the word the scalar kernel's LUT gives lane
// by lane, X lanes included. And a levelized pass in topological order —
// how the fault kernel computes its good machine — must leave every lane
// of every net at the value the scalar event kernel settles that lane's
// stimulus to. No tolerances: equality is exact. The fault kernel itself
// is pinned against a serial interpreted oracle in sim_fault_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "circuit/cells.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/word_eval.hpp"
#include "sim/word_logic.hpp"
#include "util/random.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

// A random word with about a quarter of its lanes X (canonical form).
s::LogicW random_word(lv::util::Xoshiro256& rng) {
  const std::uint64_t x = rng.next_u64() & rng.next_u64();
  return {rng.next_u64() & ~x, x};
}

// For every combinational instance of `nl`, fed random input words: the
// evaluator and the scalar LUT applied lane by lane must agree. Returns
// how many instances were checked.
std::size_t expect_words_match_lut(const c::Netlist& nl, std::uint64_t seed) {
  const auto graph = s::SimGraph::compile(nl);
  const s::WordEvaluator eval{*graph};
  lv::util::Xoshiro256 rng{seed};
  std::vector<s::LogicW> values(graph->net_count());
  std::size_t checked = 0;
  for (c::InstanceId id = 0; id < graph->instance_count(); ++id) {
    const s::SimGraph::Node& node = graph->nodes()[id];
    if (node.sequential != 0) continue;
    ++checked;
    const c::NetId* ins = graph->input_nets().data() + node.in_begin;
    for (unsigned k = 0; k < node.in_count; ++k)
      values[ins[k]] = random_word(rng);
    s::LogicW want{0, 0};
    for (unsigned lane = 0; lane < s::kLaneCount; ++lane) {
      unsigned idx = 0;
      for (unsigned k = 0; k < node.in_count; ++k)
        idx |= static_cast<unsigned>(s::lane_of(values[ins[k]], lane))
               << (2u * k);
      want = s::with_lane(want, lane, s::SimGraph::luts()[node.kind][idx]);
    }
    const s::LogicW got = eval.evaluate(id, values.data());
    EXPECT_EQ(got, want) << "instance '" << nl.instance(id).name << "'";
    if (got != want) break;
  }
  return checked;
}

// Per-net words of a levelized pass, as the fault kernel computes its
// good machine: every net starts X, the primary inputs take their words
// from `drive` (indexed by net), and each combinational instance is
// evaluated once in topological order.
std::vector<s::LogicW> settle_words(const s::SimGraph& graph,
                                    const std::vector<s::LogicW>& drive) {
  const c::Netlist& nl = graph.netlist();
  std::vector<s::LogicW> values(graph.net_count());
  for (const c::NetId in : nl.primary_inputs()) values[in] = drive[in];
  const s::WordEvaluator eval{graph};
  for (const c::InstanceId id : nl.topo_order())
    values[graph.nodes()[id].output] = eval.evaluate(id, values.data());
  return values;
}

// Drives each round of per-net input words (`rounds[r][net]`, primary
// inputs only) through a levelized pass, and each checked lane's slice
// of it through a scalar Simulator that keeps running from round to
// round. After every round, every net of every checked lane must match.
// Returns the last round's words.
std::vector<s::LogicW> expect_lanes_match_scalar(
    const c::Netlist& nl, const std::vector<std::vector<s::LogicW>>& rounds,
    const std::vector<unsigned>& lanes) {
  const auto graph = s::SimGraph::compile(nl);
  std::vector<s::Simulator> scalar(lanes.size(), s::Simulator{graph});
  std::vector<s::LogicW> words;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    words = settle_words(*graph, rounds[r]);
    std::size_t k = 0;
    for (const unsigned lane : lanes) {
      s::Simulator& sim = scalar[k++];
      for (const c::NetId in : nl.primary_inputs())
        sim.set_input(in, s::lane_of(rounds[r][in], lane));
      sim.settle();
      for (c::NetId n = 0; n < nl.net_count(); ++n) {
        EXPECT_EQ(s::lane_of(words[n], lane), sim.value(n))
            << "net '" << nl.net(n).name << "' lane " << lane << " round "
            << r;
        if (s::lane_of(words[n], lane) != sim.value(n)) return words;
      }
    }
  }
  return words;
}

// Rounds of 64 distinct random vectors: lane L of round r carries
// random_vectors(rounds, bits, seed + L)[r] on the primary inputs, LSB
// first.
std::vector<std::vector<s::LogicW>> random_rounds(const c::Netlist& nl,
                                                  std::size_t rounds,
                                                  std::uint64_t seed) {
  const c::Bus inputs = nl.primary_inputs();
  const int bits = static_cast<int>(inputs.size());
  std::vector<std::vector<std::uint64_t>> lanes(s::kLaneCount);
  for (unsigned lane = 0; lane < s::kLaneCount; ++lane)
    lanes[lane] = s::random_vectors(rounds, bits, seed + lane);
  std::vector<std::vector<s::LogicW>> out(
      rounds, std::vector<s::LogicW>(nl.net_count()));
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::uint64_t ones = 0;
      for (unsigned lane = 0; lane < s::kLaneCount; ++lane)
        ones |= ((lanes[lane][r] >> i) & 1) << lane;
      out[r][inputs[i]] = {ones, 0};
    }
  return out;
}

}  // namespace

TEST(SimBitParallel, EveryCombinationalKindMatchesEvaluateCell) {
  // Exhaustive check of each word operator: every 3^k input combination
  // of every combinational kind in the catalog. Lane L carries the
  // combination rotated by L, so neighbouring lanes hold different
  // combinations and a lane-mixing bug in the bitplane algebra cannot
  // hide behind uniform lanes.
  constexpr std::array<c::Logic, 3> codes{c::Logic::zero, c::Logic::one,
                                          c::Logic::x};
  std::size_t kinds = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(c::CellKind::kind_count);
       ++k) {
    const auto kind = static_cast<c::CellKind>(k);
    const c::CellInfo& info = c::cell_info(kind);
    if (info.sequential) continue;
    ++kinds;
    SCOPED_TRACE(std::string{info.name});
    const auto n = static_cast<std::size_t>(info.input_count);
    ASSERT_LE(n, std::size_t{s::SimGraph::kMaxLutInputs});
    std::size_t combos = 1;
    for (std::size_t p = 0; p < n; ++p) combos *= 3;
    // Combination i assigns pin p the base-3 digit p of i.
    std::vector<std::array<c::Logic, s::SimGraph::kMaxLutInputs>> pins(combos);
    std::vector<c::Logic> want(combos);
    for (std::size_t i = 0; i < combos; ++i) {
      std::size_t rest = i;
      for (std::size_t p = 0; p < n; ++p, rest /= 3)
        pins[i][p] = codes[rest % 3];
      want[i] = c::evaluate_cell(kind, {pins[i].data(), n});
    }
    for (std::size_t i = 0; i < combos; ++i) {
      std::array<s::LogicW, s::SimGraph::kMaxLutInputs> words{};
      for (unsigned lane = 0; lane < s::kLaneCount; ++lane)
        for (std::size_t p = 0; p < n; ++p)
          words[p] = s::with_lane(words[p], lane, pins[(i + lane) % combos][p]);
      const s::LogicW got = s::word_evaluate_direct(kind, words.data());
      for (unsigned lane = 0; lane < s::kLaneCount; ++lane)
        ASSERT_EQ(s::lane_of(got, lane), want[(i + lane) % combos])
            << "combination " << (i + lane) % combos << " in lane " << lane;
    }
  }
  EXPECT_GT(kinds, 0u);
}

TEST(SimBitParallel, DirectOperatorsMatchScalarLutPerLane) {
  // The evaluator against the scalar LUT applied lane by lane, X lanes
  // included, on every combinational instance of the adder, both
  // multipliers and the clocked multiply-accumulate.
  std::vector<std::unique_ptr<c::Netlist>> graphs;
  const auto add = [&](auto build) {
    graphs.push_back(std::make_unique<c::Netlist>());
    build(*graphs.back());
  };
  add([](c::Netlist& nl) { c::build_ripple_carry_adder(nl, 16); });
  add([](c::Netlist& nl) { c::build_array_multiplier(nl, 6); });
  add([](c::Netlist& nl) { c::build_wallace_multiplier(nl, 8); });
  add([](c::Netlist& nl) { c::build_pipelined_mac(nl, 8, "mac"); });
  std::uint64_t seed = 7000;
  for (const auto& nl : graphs) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    EXPECT_GT(expect_words_match_lut(*nl, seed++), 0u);
  }
}

TEST(SimBitParallel, SixtyFourLanesMatchScalarPerLane_Adder) {
  // 64 distinct random streams through one levelized pass per round;
  // every lane must equal a scalar run of its own stream.
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 16);
  std::vector<unsigned> all(s::kLaneCount);
  std::iota(all.begin(), all.end(), 0u);
  expect_lanes_match_scalar(nl, random_rounds(nl, 6, 1000), all);
}

TEST(SimBitParallel, MultiplierLanesMatchScalarPerLane) {
  // Spot-check a spread of lanes (the adder test sweeps all 64) on the
  // array and the Wallace-tree multiplier.
  for (const bool wallace : {false, true}) {
    SCOPED_TRACE(wallace ? "wallace" : "array");
    c::Netlist nl;
    if (wallace)
      c::build_wallace_multiplier(nl, 8);
    else
      c::build_array_multiplier(nl, 6);
    expect_lanes_match_scalar(nl, random_rounds(nl, 8, 3000),
                              {0, 1, 7, 31, 62, 63});
  }
}

TEST(SimBitParallel, XCarryingLanesStayLaneExact) {
  // Lanes disagreeing on X vs 0/1 at the same input: X must propagate
  // per lane exactly as the scalar kernel propagates it, without leaking
  // into known lanes. Lane pattern for input bit j of operand a:
  //   lane 0:     known from the vector stream
  //   lane 1:     X on odd input bits
  //   lane 2:     all X on operand a
  //   lane 3:     known, complemented stream
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  const auto base = s::random_vectors(12, 8, 77);
  std::vector<std::vector<s::LogicW>> rounds(
      base.size(), std::vector<s::LogicW>(nl.net_count()));
  for (std::size_t r = 0; r < base.size(); ++r) {
    for (std::size_t j = 0; j < ports.a.size(); ++j) {
      const bool bit = (base[r] >> j) & 1;
      s::LogicW w = s::broadcast(c::from_bool(bit));
      if (j % 2 == 1) w = s::with_lane(w, 1, c::Logic::x);
      w = s::with_lane(w, 2, c::Logic::x);
      w = s::with_lane(w, 3, c::from_bool(!bit));
      rounds[r][ports.a[j]] = w;
    }
    for (std::size_t j = 0; j < ports.b.size(); ++j)
      rounds[r][ports.b[j]] =
          s::broadcast(c::from_bool(((base[r] ^ 0x3c) >> j) & 1));
  }
  const auto words = expect_lanes_match_scalar(nl, rounds, {0, 1, 2, 3});
  // An all-X operand must leave lane 2's sum X but lane 0's known.
  bool lane0_known = true, lane2_known = true;
  for (const c::NetId n : ports.sum) {
    lane0_known = lane0_known && c::is_known(s::lane_of(words[n], 0));
    lane2_known = lane2_known && c::is_known(s::lane_of(words[n], 2));
  }
  EXPECT_TRUE(lane0_known);
  EXPECT_FALSE(lane2_known);
}
