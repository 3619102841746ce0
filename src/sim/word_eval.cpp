#include "sim/word_eval.hpp"

namespace lv::sim {

using circuit::CellKind;
using circuit::Logic;

WordEvaluator::WordEvaluator(const SimGraph& graph, bool force_lut_fallback)
    : nodes_{graph.nodes().data()},
      in_nets_{graph.input_nets().data()},
      luts_{graph.luts().data()},
      word_ops_{graph.word_ops().data()},
      word_scratch_(graph.max_input_count()),
      lane_scratch_(graph.max_input_count()) {
  if (force_lut_fallback) {
    forced_plan_ = graph.word_ops();
    for (auto& op : forced_plan_)
      if (op != SimGraph::kWordSequential) op = SimGraph::kWordLut;
    word_ops_ = forced_plan_.data();
  }
}

LogicW WordEvaluator::evaluate_per_lane(const SimGraph::Node& node,
                                        const LogicW* values) {
  const circuit::NetId* ins = in_nets_ + node.in_begin;
  for (unsigned k = 0; k < node.in_count; ++k)
    word_scratch_[k] = values[ins[k]];
  LogicW out{0, 0};
  const auto put = [&out](unsigned lane, Logic v) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    if (v == Logic::one)
      out.one |= bit;
    else if (v == Logic::x)
      out.x |= bit;
  };
  if (node.lut != SimGraph::kNoLut) {
    // Per-lane LUT fallback: same 256-entry tables as the scalar kernel,
    // indexed lane by lane.
    const SimGraph::Lut& lut = luts_[node.lut];
    for (unsigned lane = 0; lane < kLaneCount; ++lane) {
      unsigned idx = 0;
      for (unsigned k = 0; k < node.in_count; ++k)
        idx |= static_cast<unsigned>(lane_of(word_scratch_[k], lane))
               << (2u * k);
      put(lane, lut[idx]);
    }
    counts_.lut_lanes += kLaneCount;
  } else {
    // Generic wide cell: per-lane circuit::evaluate_cell.
    for (unsigned lane = 0; lane < kLaneCount; ++lane) {
      for (unsigned k = 0; k < node.in_count; ++k)
        lane_scratch_[k] = lane_of(word_scratch_[k], lane);
      put(lane, circuit::evaluate_cell(static_cast<CellKind>(node.kind),
                                       {lane_scratch_.data(), node.in_count}));
    }
    counts_.generic_lanes += kLaneCount;
  }
  return out;
}

}  // namespace lv::sim
