#include "circuit/netlist_io.hpp"

#include <gtest/gtest.h>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "circuit/generators.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"

namespace c = lv::circuit;
namespace u = lv::util;

TEST(NetlistIo, RoundTripPreservesStructure) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  const std::string text = c::to_netlist_text(nl);
  const c::Netlist back = c::parse_netlist_text(text);
  EXPECT_EQ(back.net_count(), nl.net_count());
  EXPECT_EQ(back.instance_count(), nl.instance_count());
  EXPECT_EQ(back.primary_inputs().size(), nl.primary_inputs().size());
  EXPECT_EQ(back.primary_outputs().size(), nl.primary_outputs().size());
  EXPECT_EQ(back.kind_histogram(), nl.kind_histogram());
}

TEST(NetlistIo, RoundTripPreservesFunction) {
  c::Netlist nl;
  const auto fwd = c::build_ripple_carry_adder(nl, 6);
  const c::Netlist back = c::parse_netlist_text(c::to_netlist_text(nl));

  // Rebuild the port buses by name in the parsed netlist.
  auto find_bus = [&](const std::string& prefix, int width) {
    c::Bus bus;
    for (int i = 0; i < width; ++i) {
      const auto id = back.find_net(prefix + std::to_string(i));
      EXPECT_NE(id, c::kInvalidNet);
      bus.push_back(id);
    }
    return bus;
  };
  const auto a = find_bus("adder_a", 6);
  const auto b = find_bus("adder_b", 6);
  c::Bus sum;
  for (const auto s : fwd.sum) sum.push_back(back.find_net(nl.net(s).name));

  lv::sim::Simulator sim{back};
  sim.set_bus(a, 23);
  sim.set_bus(b, 31);
  sim.settle();
  std::uint64_t out = 0;
  ASSERT_TRUE(sim.read_bus(sum, out));
  EXPECT_EQ(out, (23u + 31u) & 0x3fu);
}

TEST(NetlistIo, RoundTripPreservesModulesAndClock) {
  c::Netlist nl;
  c::build_register_bank(nl, c::CellKind::dff_c2mos, 4, "regs");
  const c::Netlist back = c::parse_netlist_text(c::to_netlist_text(nl));
  EXPECT_NE(back.clock_net(), c::kInvalidNet);
  const auto mods = back.modules();
  EXPECT_NE(std::find(mods.begin(), mods.end(), "regs"), mods.end());
}

TEST(NetlistIo, MissingHeaderRejected) {
  EXPECT_THROW(c::parse_netlist_text("input a\n"), u::Error);
}

TEST(NetlistIo, UnknownCellRejected) {
  EXPECT_THROW(
      c::parse_netlist_text("lvnet 1\ninput a\ngate g BOGUS w a\n"),
      u::Error);
}

TEST(NetlistIo, UnknownInputNetRejected) {
  EXPECT_THROW(
      c::parse_netlist_text("lvnet 1\ngate g INV w missing\n"), u::Error);
}

TEST(NetlistIo, ErrorCarriesLineNumber) {
  try {
    c::parse_netlist_text("lvnet 1\ninput a\nbogus_statement x\n");
    FAIL() << "expected throw";
  } catch (const u::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(NetlistIo, CommentsIgnored) {
  const auto nl = c::parse_netlist_text(
      "# header comment\nlvnet 1\ninput a  # the input\ngate g INV w a\n");
  EXPECT_EQ(nl.instance_count(), 1u);
}

TEST(NetlistIo, WhitespaceCaseAndCommentsParseToCanonicalNetlist) {
  // Tabs, CR-LF line ends, runs of blanks, trailing comments and
  // mixed-case cell names all read as the canonical text does.
  const std::string canonical =
      "lvnet 1\n"
      "input a\ninput b\nnet n\nnet y\n"
      "gate g1 NAND2 n a b module=alu\n"
      "gate g2 XOR2 y n a\n"
      "output y\n";
  const std::string messy =
      "  lvnet\t1   # header\r\n"
      "input a\r\n\tinput  b\n"
      "net n\t\t# internal\nnet y \r\n"
      "\r\n   \t\n"
      "gate\tg1 nand2   n a\tb module=alu  # first gate\r\n"
      "gate g2\txOr2 y n a#no blank before the comment\n"
      "output y\r\n";
  const c::Netlist want = c::parse_netlist_text(canonical);
  const c::Netlist got = c::parse_netlist_text(messy);
  EXPECT_EQ(c::to_netlist_text(got), c::to_netlist_text(want));
  EXPECT_EQ(c::to_netlist_text(want), canonical);

  // Diagnostics keep their code, line number and text.
  try {
    c::parse_netlist_text("lvnet 1\r\ninput a\n\tgate g Bogus w a\r\n");
    FAIL() << "expected throw";
  } catch (const lv::check::InputError& e) {
    EXPECT_STREQ(e.what(), "netlist line 3: unknown cell 'Bogus'");
    EXPECT_EQ(e.code(), lv::check::codes::net_unknown_cell);
    EXPECT_EQ(e.line(), 3);
  }
}
