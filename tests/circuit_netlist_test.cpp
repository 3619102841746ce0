#include "circuit/netlist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "check/diag.hpp"
#include "circuit/generators.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace u = lv::util;

TEST(Cells, CatalogCoversEveryKind) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(c::CellKind::kind_count);
       ++i) {
    const auto& info = c::cell_info(static_cast<c::CellKind>(i));
    EXPECT_FALSE(info.name.empty());
    EXPECT_GE(info.n_stack, 1);
    EXPECT_GE(info.p_stack, 1);
  }
}

TEST(Cells, NameRoundTrip) {
  EXPECT_EQ(c::cell_kind_from_name("NAND2"), c::CellKind::nand2);
  EXPECT_EQ(c::cell_kind_from_name("nand2"), c::CellKind::nand2);
  EXPECT_EQ(c::cell_kind_from_name("dff_tspc"), c::CellKind::dff_tspc);
  EXPECT_EQ(c::cell_kind_from_name("BOGUS"), c::CellKind::kind_count);
}

TEST(Cells, TruthTables) {
  using L = c::Logic;
  auto eval2 = [](c::CellKind k, L a, L b) {
    const L in[] = {a, b};
    return c::evaluate_cell(k, in);
  };
  EXPECT_EQ(eval2(c::CellKind::nand2, L::one, L::one), L::zero);
  EXPECT_EQ(eval2(c::CellKind::nand2, L::zero, L::one), L::one);
  EXPECT_EQ(eval2(c::CellKind::nor2, L::zero, L::zero), L::one);
  EXPECT_EQ(eval2(c::CellKind::xor2, L::one, L::zero), L::one);
  EXPECT_EQ(eval2(c::CellKind::xnor2, L::one, L::one), L::one);
  EXPECT_EQ(eval2(c::CellKind::and2, L::one, L::one), L::one);
  EXPECT_EQ(eval2(c::CellKind::or2, L::zero, L::zero), L::zero);
}

TEST(Cells, XPropagation) {
  using L = c::Logic;
  // Controlling values decide outputs even with X present.
  const L zx[] = {L::zero, L::x};
  EXPECT_EQ(c::evaluate_cell(c::CellKind::nand2, zx), L::one);
  const L ox[] = {L::one, L::x};
  EXPECT_EQ(c::evaluate_cell(c::CellKind::nor2, ox), L::zero);
  EXPECT_EQ(c::evaluate_cell(c::CellKind::xor2, ox), L::x);
  // MUX with X select but agreeing data resolves.
  const L mux_agree[] = {L::one, L::one, L::x};
  EXPECT_EQ(c::evaluate_cell(c::CellKind::mux2, mux_agree), L::one);
  const L mux_differ[] = {L::one, L::zero, L::x};
  EXPECT_EQ(c::evaluate_cell(c::CellKind::mux2, mux_differ), L::x);
}

TEST(Cells, SequentialCellRejectsCombEval) {
  const c::Logic in[] = {c::Logic::one, c::Logic::zero};
  EXPECT_THROW(c::evaluate_cell(c::CellKind::dff, in), u::Error);
}

TEST(Netlist, DuplicateNetNameRejected) {
  c::Netlist nl;
  nl.add_net("w");
  EXPECT_THROW(nl.add_net("w"), u::Error);
}

TEST(Netlist, MultipleDriversRejected) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto w = nl.add_net("w");
  nl.add_gate_onto(c::CellKind::inv, "g1", {a}, w);
  EXPECT_THROW(nl.add_gate_onto(c::CellKind::inv, "g2", {a}, w), u::Error);
}

TEST(Netlist, WrongInputCountRejected) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(c::CellKind::nand2, "g", {a}), u::Error);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto w1 = nl.add_gate(c::CellKind::inv, "g1", {a});
  const auto w2 = nl.add_gate(c::CellKind::inv, "g2", {w1});
  nl.add_gate(c::CellKind::and2, "g3", {w1, w2});
  const auto& order = nl.topo_order();
  ASSERT_EQ(order.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[2]);
}

TEST(Netlist, CyclicNetlistKeepsFanoutAndNamesItsLoop) {
  // g2 reads w1 on both pins; g1 and g2 form a loop, g3 hangs behind it.
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto w1 = nl.add_net("w1");
  const auto w2 = nl.add_net("w2");
  nl.add_gate_onto(c::CellKind::nand2, "g1", {a, w2}, w1);
  nl.add_gate_onto(c::CellKind::mux2, "g2", {w1, w1, a}, w2);
  nl.add_gate(c::CellKind::inv, "g3", {w2});
  EXPECT_EQ(nl.fanout(w1).size(), 2u);
  EXPECT_EQ(nl.fanout_pins(w2), 2u);
  EXPECT_EQ(nl.cyclic_instances(), (std::vector<c::InstanceId>{0, 1, 2}));
  EXPECT_THROW(nl.topo_order(), lv::check::InputError);
  EXPECT_THROW(nl.validate(), lv::check::InputError);
}

TEST(Netlist, CopiesAndMovesCarryTheBuiltStructure) {
  c::Netlist nl;
  c::build_register_bank(nl, c::CellKind::dff_tspc, 4);
  const auto order = nl.topo_order();
  c::Netlist copy = nl;
  EXPECT_EQ(copy.topo_order(), order);
  EXPECT_EQ(copy.sequential_instances(), nl.sequential_instances());
  c::Netlist moved = std::move(copy);
  EXPECT_EQ(moved.topo_order(), order);
  EXPECT_EQ(moved.fanout_list(), nl.fanout_list());
  // A mutation after the copy rebuilds the copy's structure only.
  moved.add_gate(c::CellKind::inv, "extra", {moved.primary_inputs()[0]});
  EXPECT_EQ(moved.topo_order().size(), order.size() + 1);
  EXPECT_EQ(nl.topo_order(), order);
}

TEST(Netlist, LevelizeIncreasesAlongChains) {
  c::Netlist nl;
  auto rca = c::build_ripple_carry_adder(nl, 8);
  const auto levels = nl.levelize();
  // The MSB carry logic must sit much deeper than bit-0 logic.
  int max_level = 0;
  for (const int l : levels) max_level = std::max(max_level, l);
  EXPECT_GE(max_level, 8);
  (void)rca;
}

TEST(Netlist, UndrivenInputCaughtByValidate) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto floating = nl.add_net("floating");
  nl.add_gate(c::CellKind::and2, "g", {a, floating});
  EXPECT_THROW(nl.validate(), u::Error);
}

TEST(Netlist, FlopWithoutClockCaughtByValidate) {
  c::Netlist nl;
  const auto d = nl.add_input("d");
  const auto bogus = nl.add_input("not_clk");
  nl.add_gate(c::CellKind::dff, "ff", {d, bogus});
  EXPECT_THROW(nl.validate(), u::Error);
}

TEST(Netlist, ModulesAndHistogram) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4, "addx");
  c::build_barrel_shifter(nl, 4, "shiftx");
  const auto mods = nl.modules();
  EXPECT_NE(std::find(mods.begin(), mods.end(), "addx"), mods.end());
  EXPECT_NE(std::find(mods.begin(), mods.end(), "shiftx"), mods.end());
  const auto hist = nl.kind_histogram();
  EXPECT_GT(hist.at("XOR2"), 0u);
  EXPECT_GT(hist.at("MUX2"), 0u);
}

TEST(Generators, GateCountsScaleWithWidth) {
  c::Netlist small;
  c::build_ripple_carry_adder(small, 4);
  c::Netlist large;
  c::build_ripple_carry_adder(large, 16);
  // 5 gates per full adder; +1 tie cell.
  EXPECT_EQ(small.instance_count(), 4u * 5u + 1u);
  EXPECT_EQ(large.instance_count(), 16u * 5u + 1u);
}

TEST(Generators, MultiplierProductWidth) {
  c::Netlist nl;
  const auto mul = c::build_array_multiplier(nl, 6);
  EXPECT_EQ(mul.product.size(), 12u);
}

TEST(Generators, BarrelShifterRequiresPowerOfTwo) {
  c::Netlist nl;
  EXPECT_THROW(c::build_barrel_shifter(nl, 6), u::Error);
}

TEST(Generators, RegisterBankCreatesClockAndFlops) {
  c::Netlist nl;
  const auto reg = c::build_register_bank(nl, c::CellKind::dff_tspc, 8);
  EXPECT_NE(nl.clock_net(), c::kInvalidNet);
  EXPECT_EQ(nl.sequential_instances().size(), 8u);
  EXPECT_EQ(reg.q.size(), 8u);
  EXPECT_NO_THROW(nl.validate());
}

// The first structural query on a shared netlist may come from any thread:
// every one of them must see the structure a serial caller sees.
TEST(NetlistSharing, FirstQueriesFromManyThreadsSeeTheSerialStructure) {
  auto fresh = [] {
    c::Netlist nl;
    c::build_pipelined_mac(nl, 6);
    nl.add_net("unused");  // drops anything the generator built
    return nl;
  };
  const c::Netlist serial = fresh();
  const auto serial_order = serial.topo_order();
  const auto serial_flops = serial.sequential_instances();
  std::vector<std::vector<c::InstanceId>> serial_fanout;
  for (c::NetId n = 0; n < serial.net_count(); ++n) {
    const auto f = serial.fanout(n);
    serial_fanout.emplace_back(f.begin(), f.end());
  }
  ASSERT_FALSE(serial_flops.empty());

  constexpr std::size_t kThreads = 8;
  const c::Netlist shared = fresh();
  std::atomic<std::size_t> waiting{kThreads};
  std::vector<int> matches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      // Rotate which query comes first.
      std::vector<c::InstanceId> order, flops;
      std::vector<std::vector<c::InstanceId>> fanout;
      for (std::size_t q = 0; q < 3; ++q) {
        switch ((t + q) % 3) {
          case 0: order = shared.topo_order(); break;
          case 1: flops = shared.sequential_instances(); break;
          default:
            for (c::NetId n = 0; n < shared.net_count(); ++n) {
              const auto f = shared.fanout(n);
              fanout.emplace_back(f.begin(), f.end());
            }
        }
      }
      matches[t] = order == serial_order && flops == serial_flops &&
                   fanout == serial_fanout;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(matches[t], 1) << t;
}
