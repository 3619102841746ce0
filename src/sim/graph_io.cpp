#include "sim/graph_io.hpp"

#include <cstdint>

#include "circuit/cells.hpp"
#include "sim/graph_access.hpp"
#include "util/binio.hpp"
#include "util/failpoint.hpp"

namespace lv::sim {

namespace {

// Injected decode failure: every caller must already treat a stale or
// corrupt graph blob as "recompile from the netlist", never an error.
lv::failpoint::Site fp_graph_decode{"sim.graph_decode"};

// A blob of any other version is refused; callers recompile.
constexpr std::uint32_t kGraphVersion = 2;

// The blob holds one word-plan byte per node, derived from the node:
// its CellKind, or this marker for a flop.
constexpr std::uint8_t kWordSequential = 0xfd;

std::uint8_t word_op(const SimGraph::Node& node) {
  return node.sequential != 0 ? kWordSequential : node.kind;
}

void put_u32_vec(util::ByteWriter& w, const std::vector<std::uint32_t>& v) {
  w.u64(v.size());
  for (const std::uint32_t x : v) w.u32(x);
}

std::vector<std::uint32_t> get_u32_vec(util::ByteReader& r,
                                       std::size_t max_size) {
  const std::uint64_t n = r.u64();
  util::require(n <= max_size, "graph_io: array size out of range");
  std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.u32();
  return v;
}

}  // namespace

std::string encode_graph(const SimGraph& g) {
  util::ByteWriter w;
  w.u32(kGraphVersion);
  w.u64(g.net_count());
  w.u64(g.instance_count());
  for (const auto& node : g.nodes()) {
    w.u32(node.output);
    w.u32(node.in_begin);
    w.u8(node.in_count);
    w.u8(node.kind);
  }
  put_u32_vec(w, g.input_nets());
  put_u32_vec(w, g.eval_offsets());
  put_u32_vec(w, g.eval_list());
  w.u64(g.instance_count());
  for (const auto& node : g.nodes()) w.u8(word_op(node));
  w.u64(g.tie_inits().size());
  for (const auto& tie : g.tie_inits()) {
    w.u32(tie.net);
    w.u8(static_cast<std::uint8_t>(tie.value));
  }
  const auto& is_input = detail::GraphAccess::net_is_input(g);
  w.u64(is_input.size());
  for (const std::uint8_t b : is_input) w.u8(b);
  return w.take();
}

std::shared_ptr<const SimGraph> decode_graph(const circuit::Netlist& netlist,
                                             std::string_view blob) {
  using util::require;
  if (const auto f = fp_graph_decode.fire()) {
    if (f.action == failpoint::Action::delay)
      failpoint::sleep_for_bits(f.bits);
    else
      throw util::Error("graph_io: injected decode failure (failpoint)");
  }
  util::ByteReader r{blob};
  require(r.u32() == kGraphVersion, "graph_io: version mismatch");
  const std::uint64_t net_count = r.u64();
  const std::uint64_t inst_count = r.u64();
  require(net_count == netlist.net_count() &&
              inst_count == netlist.instance_count(),
          "graph_io: graph does not match netlist");

  auto g = detail::GraphAccess::raw(netlist);
  using GA = detail::GraphAccess;
  GA::net_count(*g) = static_cast<std::size_t>(net_count);

  auto& nodes = GA::nodes(*g);
  nodes.resize(static_cast<std::size_t>(inst_count));
  constexpr auto kind_count =
      static_cast<std::uint8_t>(circuit::CellKind::kind_count);
  for (circuit::InstanceId i = 0; i < nodes.size(); ++i) {
    auto& node = nodes[i];
    node.output = r.u32();
    node.in_begin = r.u32();
    node.in_count = r.u8();
    node.kind = r.u8();
    require(node.output < net_count, "graph_io: node output out of range");
    require(node.kind < kind_count, "graph_io: node kind out of range");
    // The kind decides everything else about the node, as in compile:
    // its arity (which keeps a LUT index inside its 256-entry table),
    // its table (luts()[kind]) and whether it is a flop. clock_cycle()
    // samples the netlist's flops, so the blob must agree with it there.
    const circuit::CellInfo& info =
        circuit::cell_info(static_cast<circuit::CellKind>(node.kind));
    require(node.in_count == info.input_count,
            "graph_io: node input count differs from its cell's arity");
    require(info.sequential ==
                circuit::cell_info(netlist.instance(i).kind).sequential,
            "graph_io: node flop flag differs from its instance");
    node.sequential = info.sequential ? 1 : 0;
  }

  auto& input_nets = GA::input_nets(*g);
  input_nets = get_u32_vec(r, 1u << 28);
  for (const auto n : input_nets)
    require(n < net_count, "graph_io: input net out of range");
  for (const auto& node : nodes)
    require(static_cast<std::size_t>(node.in_begin) + node.in_count <=
                input_nets.size(),
            "graph_io: node input span out of range");

  auto& eval_offsets = GA::eval_offsets(*g);
  eval_offsets = get_u32_vec(r, 1u << 28);
  require(eval_offsets.size() == net_count + 1,
          "graph_io: eval offsets size mismatch");
  auto& eval_list = GA::eval_list(*g);
  eval_list = get_u32_vec(r, 1u << 28);
  require(eval_offsets.front() == 0 &&
              eval_offsets.back() == eval_list.size(),
          "graph_io: eval CSR inconsistent");
  for (std::size_t n = 0; n < net_count; ++n)
    require(eval_offsets[n] <= eval_offsets[n + 1],
            "graph_io: eval offsets not monotonic");
  for (const auto inst : eval_list)
    require(inst < inst_count, "graph_io: eval consumer out of range");

  {
    const std::uint64_t n = r.u64();
    require(n == inst_count, "graph_io: word plan size mismatch");
    // Exactly the byte the encoder derives: any other kind's operator
    // would read pins the node does not have.
    for (const auto& node : nodes)
      require(r.u8() == word_op(node),
              "graph_io: word plan op does not fit its node");
  }

  auto& tie_inits = GA::tie_inits(*g);
  {
    const std::uint64_t n = r.u64();
    require(n <= inst_count, "graph_io: tie init count out of range");
    tie_inits.resize(static_cast<std::size_t>(n));
    for (auto& tie : tie_inits) {
      tie.net = r.u32();
      const std::uint8_t value = r.u8();
      require(tie.net < net_count && value <= 2,
              "graph_io: tie init out of range");
      tie.value = static_cast<circuit::Logic>(value);
    }
  }

  auto& net_is_input = GA::net_is_input(*g);
  {
    const std::uint64_t n = r.u64();
    require(n == net_count, "graph_io: input bitmap size mismatch");
    net_is_input.resize(static_cast<std::size_t>(n));
    for (auto& b : net_is_input) {
      b = r.u8();
      require(b <= 1, "graph_io: input bitmap byte out of range");
    }
  }

  require(r.done(), "graph_io: trailing bytes");
  return g;
}

}  // namespace lv::sim
