// The lv-graph/1 layout, written the way the encoder wrote it before
// lv-graph/2: the stale blob an artifact store filled by an older build
// still holds. Version 1 carried what version 2 derives or no longer
// has — per-node lut/sequential bytes, the zero/unit/load delay tables
// with their maxima, and max_input_count. Tests use it to pin that such
// a blob is refused (and the graph recompiled), never trusted.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/cells.hpp"
#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"
#include "util/binio.hpp"

namespace lv::sim::testing {

inline std::string encode_graph_v1(const SimGraph& g) {
  const circuit::Netlist& nl = g.netlist();
  util::ByteWriter w;
  const auto put_u32_vec = [&w](const std::vector<std::uint32_t>& v) {
    w.u64(v.size());
    for (const std::uint32_t x : v) w.u32(x);
  };
  w.u32(1);
  w.u64(g.net_count());
  w.u64(g.instance_count());
  std::uint64_t max_inputs = 0;
  for (const auto& node : g.nodes()) {
    w.u32(node.output);
    w.u32(node.in_begin);
    w.u8(node.in_count);
    w.u8(node.sequential != 0 ? 0xff : node.kind);  // LUT index; 0xff: none
    w.u8(node.kind);
    w.u8(node.sequential);
    max_inputs = std::max<std::uint64_t>(max_inputs, node.in_count);
  }
  put_u32_vec(g.input_nets());
  put_u32_vec(g.eval_offsets());
  put_u32_vec(g.eval_list());
  // Zero, unit and load delays (1 + fanout pins / (2 * drive)), each
  // followed by its maximum.
  for (const int model : {0, 1, 2}) {
    std::vector<std::uint32_t> delays;
    for (const auto& inst : nl.instances()) {
      const double pins = static_cast<double>(nl.fanout_pins(inst.output));
      const double drive = circuit::cell_info(inst.kind).drive_mult;
      delays.push_back(model == 0   ? 0u
                       : model == 1 ? 1u
                                    : 1u + static_cast<std::uint32_t>(
                                               pins / (2.0 * drive)));
    }
    put_u32_vec(delays);
    w.u64(delays.empty() ? 0 : *std::max_element(delays.begin(),
                                                  delays.end()));
  }
  // Word plan: each node's kind, 0xfd for a flop.
  w.u64(g.instance_count());
  for (const auto& node : g.nodes())
    w.u8(node.sequential != 0 ? 0xfd : node.kind);
  put_u32_vec(g.sequential_instances());
  w.u64(g.tie_inits().size());
  for (const auto& tie : g.tie_inits()) {
    w.u32(tie.net);
    w.u8(static_cast<std::uint8_t>(tie.value));
  }
  w.u64(g.net_count());
  for (circuit::NetId n = 0; n < g.net_count(); ++n)
    w.u8(g.is_primary_input(n) ? 1 : 0);
  w.u64(max_inputs);
  return w.take();
}

}  // namespace lv::sim::testing
