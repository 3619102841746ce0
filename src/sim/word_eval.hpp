// One 64-lane gate evaluation over a SimGraph's word plan.
//
// The fault kernel (fault.cpp) evaluates every instance once per
// 64-vector block for the good machine, then only the instances a fault
// disturbs. Gate inputs come from a flat per-net LogicW array, and the
// evaluation itself is the verified direct word operator, or the
// per-lane LUT fallback: the scalar kernel's tables, lane by lane.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/cells.hpp"
#include "sim/sim_graph.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

class WordEvaluator {
 public:
  // `force_lut_fallback` routes every combinational cell through the
  // per-lane LUT path (differential testing of the two paths). The graph
  // must outlive the evaluator.
  explicit WordEvaluator(const SimGraph& graph,
                         bool force_lut_fallback = false);

  // Output word of combinational instance `id`, reading its input nets
  // from `values` (indexed by NetId).
  LogicW evaluate(circuit::InstanceId id, const LogicW* values) const {
    const SimGraph::Node& node = nodes_[id];
    const std::uint8_t op = word_ops_[id];
    if (op < static_cast<std::uint8_t>(circuit::CellKind::kind_count)) {
      // Verified direct word operator: one bitwise evaluation covers all
      // 64 lanes.
      const circuit::NetId* ins = in_nets_ + node.in_begin;
      LogicW in[SimGraph::kMaxLutInputs];
      for (unsigned k = 0; k < node.in_count; ++k) in[k] = values[ins[k]];
      return word_evaluate_direct(static_cast<circuit::CellKind>(op), in);
    }
    return evaluate_per_lane(node, values);
  }

 private:
  // Per-lane LUT fallback: the scalar kernel's tables, lane by lane.
  LogicW evaluate_per_lane(const SimGraph::Node& node,
                           const LogicW* values) const;

  const SimGraph::Node* nodes_;
  const circuit::NetId* in_nets_;
  const SimGraph::Lut* luts_;
  const std::uint8_t* word_ops_;
  // Word plan with every combinational instance demoted to the LUT path
  // (force_lut_fallback only).
  std::vector<std::uint8_t> forced_plan_;
};

}  // namespace lv::sim
