// Field-level access to SimGraph for the serialization and incremental
// recompile paths (graph_io.cpp, graph_delta.cpp, and their tests).
//
// SimGraph's public surface is deliberately read-only — a compiled graph
// is immutable and shared across threads. Deserializing one from the
// artifact store and patching one incrementally both need to *install*
// the arrays directly, so that capability lives here, in one named
// friend, instead of loosening the class itself.
#pragma once

#include <memory>

#include "sim/sim_graph.hpp"

namespace lv::sim::detail {

struct GraphAccess {
  // An empty graph over `netlist`: no validation, no compile. Every
  // array must be installed before the graph is handed to a simulator.
  static std::shared_ptr<SimGraph> raw(const circuit::Netlist& netlist) {
    return std::shared_ptr<SimGraph>{
        new SimGraph{SimGraph::RawTag{}, netlist}};
  }

  static std::size_t& net_count(SimGraph& g) { return g.net_count_; }
  static std::vector<SimGraph::Node>& nodes(SimGraph& g) { return g.nodes_; }
  static std::vector<circuit::NetId>& input_nets(SimGraph& g) {
    return g.input_nets_;
  }
  static std::vector<std::uint32_t>& eval_offsets(SimGraph& g) {
    return g.eval_offsets_;
  }
  static std::vector<circuit::InstanceId>& eval_list(SimGraph& g) {
    return g.eval_list_;
  }
  static std::vector<circuit::InstanceId>& sequential(SimGraph& g) {
    return g.sequential_;
  }
  static std::vector<SimGraph::TieInit>& tie_inits(SimGraph& g) {
    return g.tie_inits_;
  }
  static std::vector<std::uint8_t>& net_is_input(SimGraph& g) {
    return g.net_is_input_;
  }
  static const std::vector<std::uint8_t>& net_is_input(const SimGraph& g) {
    return g.net_is_input_;
  }
};

}  // namespace lv::sim::detail
