// Incremental recompilation (sim/graph_delta.hpp): for every edit inside
// the aligned envelope, patching the base graph must produce a graph
// BIT-IDENTICAL to a from-scratch compile of the edited netlist — pinned
// by comparing the full serialized form (every array at once). Edits
// outside the envelope must be classified as such and fall back.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "check/ingest.hpp"
#include "circuit/netlist.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sim/graph_delta.hpp"
#include "sim/graph_io.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;

namespace {

// Counter-delta assertions need metrics collection on (off by default).
[[maybe_unused]] const bool kObsEnabled = [] {
  lv::obs::set_enabled(true);
  return true;
}();

std::uint64_t sched_counter(const std::string& name) {
  const auto report = lv::obs::Registry::global().report();
  const auto it = report.scheduling_counters.find(name);
  return it == report.scheduling_counters.end() ? 0 : it->second;
}

// A small design with fanout structure: g0's output feeds two consumers,
// so rewiring moves entries of other nets' consumer lists, not just the
// edited instance's.
const char* kBaseNetlist =
    "lvnet 1\n"
    "input a\n"
    "input b\n"
    "input c\n"
    "net t0\n"
    "net t1\n"
    "net t2\n"
    "net y\n"
    "gate g0 AND2 t0 a b\n"
    "gate g1 NAND2 t1 t0 c\n"
    "gate g2 XOR2 t2 t0 b\n"
    "gate g3 OR2 y t1 t2\n"
    "output y\n";

std::string with_line(const std::string& from, const std::string& to) {
  std::string text = kBaseNetlist;
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

// The pin: recompile_incremental(base, edited) must serialize to exactly
// the bytes a from-scratch compile of `edited` serializes to.
void expect_incremental_identical(const std::string& edited_text,
                                  std::size_t expect_changed) {
  const c::Netlist base = lv::check::require_netlist(kBaseNetlist);
  const c::Netlist edited = lv::check::require_netlist(edited_text);
  const auto base_graph = s::SimGraph::compile(base);

  const s::GraphDelta delta = s::diff_netlists(base, edited);
  ASSERT_TRUE(delta.aligned);
  EXPECT_EQ(delta.changed.size(), expect_changed);

  const std::uint64_t inc_before = sched_counter("sim.incremental_recompiles");
  const auto patched = s::recompile_incremental(*base_graph, edited, delta);
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(sched_counter("sim.incremental_recompiles"), inc_before + 1);

  const s::SimGraph full{edited};
  EXPECT_EQ(s::encode_graph(*patched), s::encode_graph(full));
}

}  // namespace

TEST(SimIncremental, IdenticalNetlistsHaveEmptyDelta) {
  const c::Netlist base = lv::check::require_netlist(kBaseNetlist);
  const c::Netlist same = lv::check::require_netlist(kBaseNetlist);
  const s::GraphDelta delta = s::diff_netlists(base, same);
  EXPECT_TRUE(delta.aligned);
  EXPECT_TRUE(delta.changed.empty());
}

TEST(SimIncremental, KindSwapSameArity) {
  expect_incremental_identical(
      with_line("gate g1 NAND2 t1 t0 c", "gate g1 NOR2 t1 t0 c"), 1);
}

TEST(SimIncremental, InputRewire) {
  // g2 reads (t0, b) -> (t0, a): a's fanout grows, b's shrinks, so the
  // eval CSR shifts.
  expect_incremental_identical(
      with_line("gate g2 XOR2 t2 t0 b", "gate g2 XOR2 t2 t0 a"), 1);
}

TEST(SimIncremental, ArityChange) {
  // NAND2 -> NAND3 grows the instance's input span: the flat input-pin
  // CSR must be rebuilt, not just patched in place.
  expect_incremental_identical(
      with_line("gate g1 NAND2 t1 t0 c", "gate g1 NAND3 t1 t0 c a"), 1);
}

TEST(SimIncremental, DriveStrengthResize) {
  // The classic what-if edit: swap a gate for its wider-drive sibling
  // family member (AND2 -> NAND2 + polarity fix is not aligned, so use
  // XOR2 -> XNOR2, a pure function change with identical pins).
  expect_incremental_identical(
      with_line("gate g2 XOR2 t2 t0 b", "gate g2 XNOR2 t2 t0 b"), 1);
}

TEST(SimIncremental, MultipleSimultaneousEdits) {
  std::string text =
      with_line("gate g0 AND2 t0 a b", "gate g0 OR2 t0 a b");
  {
    const std::size_t pos = text.find("gate g3 OR2 y t1 t2");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("gate g3 OR2 y t1 t2").size(),
                 "gate g3 AND2 y t1 t2");
  }
  expect_incremental_identical(text, 2);
}

TEST(SimIncremental, TieSwap) {
  // Tie cells drive initialization state (tie_inits): swapping TIE0 for
  // TIE1 must rebuild that table.
  const char* base_text =
      "lvnet 1\n"
      "input a\n"
      "net k\n"
      "net y\n"
      "gate t0 TIE0 k\n"
      "gate g0 AND2 y a k\n"
      "output y\n";
  const c::Netlist base = lv::check::require_netlist(base_text);
  std::string edited_text{base_text};
  edited_text.replace(edited_text.find("TIE0"), 4, "TIE1");
  const c::Netlist edited = lv::check::require_netlist(edited_text);

  const auto base_graph = s::SimGraph::compile(base);
  const s::GraphDelta delta = s::diff_netlists(base, edited);
  ASSERT_TRUE(delta.aligned);
  EXPECT_EQ(delta.changed.size(), 1u);
  const auto patched = s::recompile_incremental(*base_graph, edited, delta);
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(s::encode_graph(*patched), s::encode_graph(s::SimGraph{edited}));
}

TEST(SimIncremental, PatchedGraphSimulatesIdentically) {
  // Belt and braces on top of the byte-identity pin: run the patched and
  // fresh graphs side by side.
  const std::string edited_text =
      with_line("gate g1 NAND2 t1 t0 c", "gate g1 NOR2 t1 t0 c");
  const c::Netlist base = lv::check::require_netlist(kBaseNetlist);
  const c::Netlist edited = lv::check::require_netlist(edited_text);
  const auto base_graph = s::SimGraph::compile(base);
  const auto patched = s::recompile_incremental(
      *base_graph, edited, s::diff_netlists(base, edited));
  ASSERT_NE(patched, nullptr);

  s::Simulator p{patched};
  s::Simulator f{s::SimGraph::compile(edited)};
  const c::NetId na = edited.find_net("a");
  const c::NetId nb = edited.find_net("b");
  const c::NetId nc = edited.find_net("c");
  const c::NetId ny = edited.find_net("y");
  for (int bits = 0; bits < 8; ++bits) {
    for (s::Simulator* sim : {&p, &f}) {
      sim->set_input(na, (bits & 1) ? c::Logic::one : c::Logic::zero);
      sim->set_input(nb, (bits & 2) ? c::Logic::one : c::Logic::zero);
      sim->set_input(nc, (bits & 4) ? c::Logic::one : c::Logic::zero);
      sim->settle();
    }
    EXPECT_EQ(p.value(ny), f.value(ny)) << "input " << bits;
    EXPECT_EQ(p.stats().transitions(ny), f.stats().transitions(ny));
  }
}

TEST(SimIncremental, SequentialFlipFallsBack) {
  // A combinational<->sequential kind change rewrites the event-graph
  // shape (flops are filtered from the eval CSR): outside the envelope.
  const char* base_text =
      "lvnet 1\n"
      "clock clk\n"
      "input d\n"
      "net q\n"
      "net y\n"
      "gate s0 DFF q d clk\n"
      "gate i0 INV y q\n"
      "output y\n";
  const char* edited_text =
      "lvnet 1\n"
      "clock clk\n"
      "input d\n"
      "net q\n"
      "net y\n"
      "gate s0 AND2 q d clk\n"
      "gate i0 INV y q\n"
      "output y\n";
  const c::Netlist base = lv::check::require_netlist(base_text);
  const c::Netlist edited = lv::check::require_netlist(edited_text);
  const auto base_graph = s::SimGraph::compile(base);
  const s::GraphDelta delta = s::diff_netlists(base, edited);
  ASSERT_TRUE(delta.aligned);  // same nets, same instances — aligned...
  const std::uint64_t fb_before = sched_counter("sim.incremental_fallbacks");
  // ...but the patch is refused.
  EXPECT_EQ(s::recompile_incremental(*base_graph, edited, delta), nullptr);
  EXPECT_EQ(sched_counter("sim.incremental_fallbacks"), fb_before + 1);
}

TEST(SimIncremental, StructuralChangesAreMisaligned) {
  const c::Netlist base = lv::check::require_netlist(kBaseNetlist);
  // Extra net + instance.
  EXPECT_FALSE(
      s::diff_netlists(base, lv::check::require_netlist(with_line(
                                 "gate g3 OR2 y t1 t2",
                                 "net t3\ngate gx INV t3 t0\n"
                                 "gate g3 OR2 y t1 t3")))
          .aligned);
  // Renamed instance.
  EXPECT_FALSE(
      s::diff_netlists(base, lv::check::require_netlist(with_line(
                                 "gate g1 NAND2 t1 t0 c",
                                 "gate g1x NAND2 t1 t0 c")))
          .aligned);
  // Output moved to a different net.
  EXPECT_FALSE(
      s::diff_netlists(base, lv::check::require_netlist(with_line(
                                 "output y", "output y\noutput t2")))
          .aligned);
}
