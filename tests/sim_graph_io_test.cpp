// SimGraph serialization (lv-graph/2): a decoded graph must be
// bit-identical to the compile it was encoded from — pinned by
// re-encoding (every serialized array compared at once) and by running
// both through the simulator. Damaged, forged and version-1 blobs must
// throw util::Error, the signal a caller turns into a recompile.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/ingest.hpp"
#include "circuit/generators.hpp"
#include "graph_blob_v1.hpp"
#include "circuit/netlist.hpp"
#include "sim/graph_io.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace c = lv::circuit;
namespace s = lv::sim;
namespace u = lv::util;

namespace {

const char* kSequentialNetlist =
    "lvnet 1\n"
    "clock clk\n"
    "input d\n"
    "input sel\n"
    "net q\n"
    "net inv_q\n"
    "net muxed\n"
    "net tied\n"
    "net y\n"
    "gate f0 DFF q d clk\n"
    "gate i0 INV inv_q q\n"
    "gate m0 MUX2 muxed q inv_q sel\n"
    "gate t0 TIE1 tied\n"
    "gate a0 AND2 y muxed tied\n"
    "output y\n";

// decode(encode(g)) must re-encode to the identical byte string: that
// compares every serialized field (nodes, CSRs, word ops, tie inits,
// bitmaps) in one shot.
void expect_round_trip_identical(const c::Netlist& nl) {
  const auto compiled = s::SimGraph::compile(nl);
  const std::string blob = s::encode_graph(*compiled);
  const auto decoded = s::decode_graph(nl, blob);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(s::encode_graph(*decoded), blob);
  // Derived on decode, not serialized: must match the compiled graph's.
  for (std::size_t i = 0; i < compiled->instance_count(); ++i)
    EXPECT_EQ(decoded->nodes()[i].sequential, compiled->nodes()[i].sequential)
        << "node " << i;
  EXPECT_EQ(decoded->sequential_instances(),
            compiled->sequential_instances());
}

}  // namespace

TEST(SimGraphIo, CombinationalRoundTripIsBitIdentical) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 8);
  expect_round_trip_identical(nl);
}

TEST(SimGraphIo, SequentialRoundTripIsBitIdentical) {
  const c::Netlist nl = lv::check::require_netlist(kSequentialNetlist);
  expect_round_trip_identical(nl);
}

TEST(SimGraphIo, DecodedGraphSimulatesIdentically) {
  c::Netlist nl;
  const c::AdderPorts ports = c::build_ripple_carry_adder(nl, 8);
  const auto compiled = s::SimGraph::compile(nl);
  const auto decoded = s::decode_graph(nl, s::encode_graph(*compiled));

  s::Simulator a{compiled};
  s::Simulator b{decoded};
  u::Xoshiro256 rng{42};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t va = rng.next_u64() & 0xff;
    const std::uint64_t vb = rng.next_u64() & 0xff;
    a.set_bus(ports.a, va);
    a.set_bus(ports.b, vb);
    a.settle();
    b.set_bus(ports.a, va);
    b.set_bus(ports.b, vb);
    b.settle();
    std::uint64_t sa = 0;
    std::uint64_t sb = 0;
    ASSERT_TRUE(a.read_bus(ports.sum, sa));
    ASSERT_TRUE(b.read_bus(ports.sum, sb));
    EXPECT_EQ(sa, sb) << "inputs " << va << " + " << vb;
    EXPECT_EQ(sa & 0xff, (va + vb) & 0xff);
  }
  // Transition statistics ride on the same CSR arrays — glitch counts
  // must match too, not just settled values.
  for (c::NetId n = 0; n < nl.net_count(); ++n)
    EXPECT_EQ(a.stats().transitions(n), b.stats().transitions(n)) << n;
}

TEST(SimGraphIo, RejectsTruncatedBlob) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4);
  const std::string blob = s::encode_graph(*s::SimGraph::compile(nl));
  for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                blob.size() / 2, blob.size() - 1})
    EXPECT_THROW(s::decode_graph(nl, std::string_view{blob}.substr(0, len)),
                 u::Error)
        << "prefix of " << len << " bytes decoded";
}

TEST(SimGraphIo, RejectsVersionBump) {
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4);
  std::string blob = s::encode_graph(*s::SimGraph::compile(nl));
  blob[0] = static_cast<char>(blob[0] + 1);  // version is the first u32
  EXPECT_THROW(s::decode_graph(nl, blob), u::Error);
  // A store filled by an older build still holds lv-graph/1 blobs, whose
  // delay tables and max_input_count the old decoder installed
  // unchecked. They are refused whole; the caller recompiles.
  EXPECT_THROW(
      s::decode_graph(nl, s::testing::encode_graph_v1(s::SimGraph{nl})),
      u::Error);
}

TEST(SimGraphIo, RejectsNodeInputCountOtherThanItsArity) {
  // Forged input counts that still fit the pin array. One pin too many
  // gathers a LUT index past the cell's table entries, and five pins
  // index past all 256; one too few reads the wrong entry.
  c::Netlist nl;
  c::build_ripple_carry_adder(nl, 4);
  const auto graph = s::SimGraph::compile(nl);
  const std::string blob = s::encode_graph(*graph);
  // The first two-input node. Its in_count follows the header (version,
  // net and instance counts), the 10-byte nodes before it, and its own
  // output and in_begin.
  std::size_t node = 0;
  while (graph->nodes()[node].in_count != 2) ++node;
  const std::size_t in_count_at = 4 + 8 + 8 + 10 * node + 4 + 4;
  ASSERT_EQ(blob[in_count_at], 2);
  for (const int forged : {0, 1, 3, 5}) {
    std::string mutated = blob;
    mutated[in_count_at] = static_cast<char>(forged);
    EXPECT_THROW(s::decode_graph(nl, mutated), u::Error)
        << "node " << node << " claims " << forged << " inputs";
  }
}

TEST(SimGraphIo, RejectsWordOpThatDoesNotFitItsNode) {
  // A node's word-plan byte is derived: its own kind, or 0xfd for a
  // flop. A forged op of a wider kind would read pins the node does not
  // have, and the retired per-lane LUT marker 0xfe is refused like any
  // other byte.
  const c::Netlist nl = lv::check::require_netlist(kSequentialNetlist);
  const auto graph = s::SimGraph::compile(nl);
  const std::string blob = s::encode_graph(*graph);
  // Header and 10-byte nodes, three u32 arrays (u64 size + entries), the
  // word plan's size; then one op byte per node.
  const std::size_t first_op =
      4 + 8 + 8 + 10 * graph->instance_count() +
      8 + 4 * graph->input_nets().size() +
      8 + 4 * graph->eval_offsets().size() +
      8 + 4 * graph->eval_list().size() + 8;
  constexpr std::uint8_t kFlop = 0xfd;
  constexpr std::uint8_t kRetiredLut = 0xfe;
  const auto& nodes = graph->nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bool flop = nodes[i].sequential != 0;
    ASSERT_EQ(static_cast<std::uint8_t>(blob[first_op + i]),
              flop ? kFlop : nodes[i].kind);
    std::vector<std::uint8_t> forged{kRetiredLut};
    if (!flop) forged.push_back(kFlop);
    if (nodes[i].kind != static_cast<std::uint8_t>(c::CellKind::nand4))
      forged.push_back(static_cast<std::uint8_t>(c::CellKind::nand4));
    for (const std::uint8_t op : forged) {
      std::string mutated = blob;
      mutated[first_op + i] = static_cast<char>(op);
      EXPECT_THROW(s::decode_graph(nl, mutated), u::Error)
          << "node " << i << " op " << int{op};
    }
  }
}

TEST(SimGraphIo, RejectsBlobForDifferentNetlist) {
  // A blob keyed to the wrong netlist (count mismatch) must throw, not
  // index out of bounds.
  c::Netlist four;
  c::build_ripple_carry_adder(four, 4);
  c::Netlist eight;
  c::build_ripple_carry_adder(eight, 8);
  const std::string blob = s::encode_graph(*s::SimGraph::compile(four));
  EXPECT_THROW(s::decode_graph(eight, blob), u::Error);
}

TEST(SimGraphIo, RejectsOutOfRangeIndices) {
  // Flip bytes across the whole blob; every mutation must either decode
  // to a graph that re-encodes cleanly or throw util::Error — never
  // crash or hand back out-of-range indices silently.
  const c::Netlist nl = lv::check::require_netlist(kSequentialNetlist);
  const std::string blob = s::encode_graph(*s::SimGraph::compile(nl));
  int rejected = 0;
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x7f);
    try {
      const auto g = s::decode_graph(nl, mutated);
      ASSERT_NE(g, nullptr);
    } catch (const u::Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "no mutation was ever rejected";
}
