// One 64-lane gate evaluation over a SimGraph.
//
// The fault kernel (fault.cpp) evaluates every instance once per
// 64-vector block for the good machine, then only the instances a fault
// disturbs. Gate inputs come from a flat per-net LogicW array, and the
// evaluation is the node's direct word operator (word_logic.hpp): one
// bitwise evaluation covers all 64 lanes.
#pragma once

#include "circuit/cells.hpp"
#include "sim/sim_graph.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

class WordEvaluator {
 public:
  // The graph must outlive the evaluator.
  explicit WordEvaluator(const SimGraph& graph)
      : nodes_{graph.nodes().data()}, in_nets_{graph.input_nets().data()} {}

  // Output word of combinational instance `id`, reading its input nets
  // from `values` (indexed by NetId).
  LogicW evaluate(circuit::InstanceId id, const LogicW* values) const {
    const SimGraph::Node& node = nodes_[id];
    const circuit::NetId* ins = in_nets_ + node.in_begin;
    LogicW in[SimGraph::kMaxLutInputs];
    for (unsigned k = 0; k < node.in_count; ++k) in[k] = values[ins[k]];
    return word_evaluate_direct(static_cast<circuit::CellKind>(node.kind), in);
  }

 private:
  const SimGraph::Node* nodes_;
  const circuit::NetId* in_nets_;
};

}  // namespace lv::sim
