#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "circuit/cells.hpp"
#include "circuit/generators.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;
using c::Logic;

namespace {

// Exhaustive functional check of an adder netlist against integer math.
void check_adder_exhaustive(c::Netlist& nl, const c::AdderPorts& ports,
                            int width) {
  s::Simulator sim{nl};
  const std::uint64_t mask = (width == 64) ? ~0ull : ((1ull << width) - 1);
  const std::uint64_t limit = std::min<std::uint64_t>(mask, 15);
  for (std::uint64_t a = 0; a <= limit; ++a) {
    for (std::uint64_t b = 0; b <= limit; ++b) {
      sim.set_bus(ports.a, a);
      sim.set_bus(ports.b, b);
      sim.settle();
      std::uint64_t sum = 0;
      ASSERT_TRUE(sim.read_bus(ports.sum, sum)) << "X in sum";
      std::uint64_t expect = (a + b) & mask;
      EXPECT_EQ(sum, expect) << a << "+" << b;
      const Logic cout = sim.value(ports.cout);
      EXPECT_EQ(cout == Logic::one, ((a + b) >> width) & 1)
          << a << "+" << b << " carry";
    }
  }
}

}  // namespace

TEST(Simulator, InverterChainPropagates) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto w1 = nl.add_gate(c::CellKind::inv, "g1", {a});
  const auto w2 = nl.add_gate(c::CellKind::inv, "g2", {w1});
  s::Simulator sim{nl};
  sim.set_input(a, Logic::one);
  sim.settle();
  EXPECT_EQ(sim.value(w1), Logic::zero);
  EXPECT_EQ(sim.value(w2), Logic::one);
  sim.set_input(a, Logic::zero);
  sim.settle();
  EXPECT_EQ(sim.value(w2), Logic::zero);
}

TEST(Simulator, UnknownsBeforeStimulus) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto w = nl.add_gate(c::CellKind::inv, "g", {a});
  s::Simulator sim{nl};
  EXPECT_EQ(sim.value(w), Logic::x);
}

TEST(Simulator, TieCellsSettleWithoutStimulus) {
  c::Netlist nl;
  const auto t1 = nl.add_gate(c::CellKind::tie1, "hi", {});
  const auto t0 = nl.add_gate(c::CellKind::tie0, "lo", {});
  const auto w = nl.add_gate(c::CellKind::and2, "g", {t1, t0});
  s::Simulator sim{nl};
  sim.settle();
  EXPECT_EQ(sim.value(w), Logic::zero);
}

TEST(Simulator, RippleCarryAdder8BitExhaustiveCorners) {
  c::Netlist nl;
  const auto ports = c::build_ripple_carry_adder(nl, 8);
  s::Simulator sim{nl};
  const std::uint64_t cases[][2] = {{0, 0},    {255, 255}, {255, 1},
                                    {128, 128}, {85, 170},  {1, 254},
                                    {200, 100}, {17, 42}};
  for (const auto& tc : cases) {
    sim.set_bus(ports.a, tc[0]);
    sim.set_bus(ports.b, tc[1]);
    sim.settle();
    std::uint64_t sum = 0;
    ASSERT_TRUE(sim.read_bus(ports.sum, sum));
    EXPECT_EQ(sum, (tc[0] + tc[1]) & 0xff);
    EXPECT_EQ(sim.value(ports.cout) == Logic::one, (tc[0] + tc[1]) > 255);
  }
}

TEST(Simulator, AdderArchitecturesAgree4BitExhaustive) {
  c::Netlist rc;
  auto rc_ports = c::build_ripple_carry_adder(rc, 4);
  check_adder_exhaustive(rc, rc_ports, 4);

  c::Netlist cla;
  auto cla_ports = c::build_carry_lookahead_adder(cla, 4);
  check_adder_exhaustive(cla, cla_ports, 4);

  c::Netlist csel;
  auto csel_ports = c::build_carry_select_adder(csel, 4, 2);
  check_adder_exhaustive(csel, csel_ports, 4);
}

TEST(Simulator, WideAddersSpotChecked) {
  c::Netlist cla;
  const auto cla_ports = c::build_carry_lookahead_adder(cla, 16);
  s::Simulator sim{cla};
  const std::uint64_t cases[][2] = {
      {0xffff, 1}, {0x8000, 0x8000}, {0x1234, 0x4321}, {0xaaaa, 0x5555}};
  for (const auto& tc : cases) {
    sim.set_bus(cla_ports.a, tc[0]);
    sim.set_bus(cla_ports.b, tc[1]);
    sim.settle();
    std::uint64_t sum = 0;
    ASSERT_TRUE(sim.read_bus(cla_ports.sum, sum));
    EXPECT_EQ(sum, (tc[0] + tc[1]) & 0xffff);
  }
}

TEST(Simulator, ArrayMultiplier4BitExhaustive) {
  c::Netlist nl;
  const auto mul = c::build_array_multiplier(nl, 4);
  s::Simulator sim{nl};
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      sim.set_bus(mul.a, a);
      sim.set_bus(mul.b, b);
      sim.settle();
      std::uint64_t p = 0;
      ASSERT_TRUE(sim.read_bus(mul.product, p)) << a << "*" << b;
      EXPECT_EQ(p, a * b) << a << "*" << b;
    }
  }
}

TEST(Simulator, ArrayMultiplier8BitSpotChecked) {
  c::Netlist nl;
  const auto mul = c::build_array_multiplier(nl, 8);
  s::Simulator sim{nl};
  const std::uint64_t cases[][2] = {
      {255, 255}, {255, 1}, {128, 2}, {99, 77}, {13, 200}, {0, 123}};
  for (const auto& tc : cases) {
    sim.set_bus(mul.a, tc[0]);
    sim.set_bus(mul.b, tc[1]);
    sim.settle();
    std::uint64_t p = 0;
    ASSERT_TRUE(sim.read_bus(mul.product, p));
    EXPECT_EQ(p, tc[0] * tc[1]);
  }
}

TEST(Simulator, BarrelShifterAllShifts) {
  c::Netlist nl;
  const auto sh = c::build_barrel_shifter(nl, 8);
  s::Simulator sim{nl};
  for (std::uint64_t amount = 0; amount < 8; ++amount) {
    sim.set_bus(sh.data, 0xb5);
    sim.set_bus(sh.shamt, amount);
    sim.settle();
    std::uint64_t out = 0;
    ASSERT_TRUE(sim.read_bus(sh.out, out));
    EXPECT_EQ(out, (0xb5ull << amount) & 0xff) << "shift " << amount;
  }
}

TEST(Simulator, EqualityComparator) {
  c::Netlist nl;
  const auto cmp = c::build_equality_comparator(nl, 8);
  s::Simulator sim{nl};
  sim.set_bus(cmp.a, 0x5a);
  sim.set_bus(cmp.b, 0x5a);
  sim.settle();
  EXPECT_EQ(sim.value(cmp.equal), Logic::one);
  sim.set_bus(cmp.b, 0x5b);
  sim.settle();
  EXPECT_EQ(sim.value(cmp.equal), Logic::zero);
}

TEST(Simulator, AluOperations) {
  c::Netlist nl;
  const auto alu = c::build_alu(nl, 8);
  s::Simulator sim{nl};
  const std::uint64_t a = 0xc3;
  const std::uint64_t b = 0x5a;
  struct Case {
    std::uint64_t op;
    std::uint64_t expect;
  };
  const Case cases[] = {{0, (a + b) & 0xff}, {1, a & b}, {2, a | b},
                        {3, a ^ b}};
  for (const auto& tc : cases) {
    sim.set_bus(alu.a, a);
    sim.set_bus(alu.b, b);
    sim.set_bus(alu.op, tc.op);
    sim.settle();
    std::uint64_t r = 0;
    ASSERT_TRUE(sim.read_bus(alu.result, r)) << "op " << tc.op;
    EXPECT_EQ(r, tc.expect) << "op " << tc.op;
  }
}

TEST(Simulator, FlopsCaptureOnClockCycle) {
  c::Netlist nl;
  const auto reg = c::build_register_bank(nl, c::CellKind::dff, 4);
  s::Simulator sim{nl};
  sim.reset_flops(Logic::zero);
  sim.set_bus(reg.d, 0x9);
  sim.settle();
  std::uint64_t q = 0;
  ASSERT_TRUE(sim.read_bus(reg.q, q));
  EXPECT_EQ(q, 0u);  // not yet clocked
  sim.clock_cycle();
  ASSERT_TRUE(sim.read_bus(reg.q, q));
  EXPECT_EQ(q, 0x9u);
}

TEST(Simulator, GatedClockFreezesModule) {
  c::Netlist nl;
  const auto reg = c::build_register_bank(nl, c::CellKind::dff, 4, "myreg");
  s::Simulator sim{nl};
  sim.reset_flops(Logic::zero);
  sim.set_module_clock_enable("myreg", false);
  sim.set_bus(reg.d, 0xf);
  sim.settle();
  sim.clock_cycle();
  std::uint64_t q = 0;
  ASSERT_TRUE(sim.read_bus(reg.q, q));
  EXPECT_EQ(q, 0u);  // gated: no capture
  sim.set_module_clock_enable("myreg", true);
  sim.clock_cycle();
  ASSERT_TRUE(sim.read_bus(reg.q, q));
  EXPECT_EQ(q, 0xfu);
}

TEST(Simulator, ShiftRegisterMasterSlaveSemantics) {
  // q2 must take q1's *old* value on each edge (no shoot-through).
  c::Netlist nl;
  const auto d = nl.add_input("d");
  const auto clk = nl.add_clock("clk");
  const auto q1 = nl.add_gate(c::CellKind::dff, "ff1", {d, clk});
  const auto q2 = nl.add_gate(c::CellKind::dff, "ff2", {q1, clk});
  s::Simulator sim{nl};
  sim.reset_flops(Logic::zero);
  sim.set_input(d, Logic::one);
  sim.settle();
  sim.clock_cycle();
  EXPECT_EQ(sim.value(q1), Logic::one);
  EXPECT_EQ(sim.value(q2), Logic::zero);
  sim.clock_cycle();
  EXPECT_EQ(sim.value(q2), Logic::one);
}

TEST(Simulator, SetInputRejectsInternalNet) {
  c::Netlist nl;
  const auto a = nl.add_input("a");
  const auto w = nl.add_gate(c::CellKind::inv, "g", {a});
  s::Simulator sim{nl};
  EXPECT_THROW(sim.set_input(w, Logic::one), lv::util::Error);
}

TEST(SimGraph, EveryCombinationalCellFitsALut) {
  // Both kernels evaluate every combinational cell through a 256-entry
  // LUT and have no other path: a wider cell must fail here, loudly.
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(c::CellKind::kind_count); ++k) {
    const auto& info = c::cell_info(static_cast<c::CellKind>(k));
    if (!info.sequential) {
      EXPECT_LE(info.input_count, s::SimGraph::kMaxLutInputs) << info.name;
    }
  }
}

TEST(SimGraph, RejectsNetCountsPastTheEventIdRange) {
  // Scalar events carry 30-bit net ids; a larger netlist is a coded
  // input error at compile time, never a silent id wrap.
  EXPECT_NO_THROW(lv::sim::SimGraph::require_net_capacity(
      lv::sim::SimGraph::kMaxNets - 1));
  try {
    lv::sim::SimGraph::require_net_capacity(lv::sim::SimGraph::kMaxNets);
    FAIL() << "expected net.too_large";
  } catch (const lv::check::InputError& e) {
    EXPECT_EQ(e.code(), lv::check::codes::net_too_large);
  }
}
