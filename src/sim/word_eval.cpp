#include "sim/word_eval.hpp"

namespace lv::sim {

using circuit::Logic;

WordEvaluator::WordEvaluator(const SimGraph& graph, bool force_lut_fallback)
    : nodes_{graph.nodes().data()},
      in_nets_{graph.input_nets().data()},
      luts_{graph.luts().data()},
      word_ops_{graph.word_ops().data()} {
  if (force_lut_fallback) {
    forced_plan_ = graph.word_ops();
    for (auto& op : forced_plan_)
      if (op != SimGraph::kWordSequential) op = SimGraph::kWordLut;
    word_ops_ = forced_plan_.data();
  }
}

LogicW WordEvaluator::evaluate_per_lane(const SimGraph::Node& node,
                                        const LogicW* values) const {
  const circuit::NetId* ins = in_nets_ + node.in_begin;
  LogicW in[SimGraph::kMaxLutInputs];
  for (unsigned k = 0; k < node.in_count; ++k) in[k] = values[ins[k]];
  const SimGraph::Lut& lut = luts_[node.kind];
  LogicW out{0, 0};
  for (unsigned lane = 0; lane < kLaneCount; ++lane) {
    unsigned idx = 0;
    for (unsigned k = 0; k < node.in_count; ++k)
      idx |= static_cast<unsigned>(lane_of(in[k], lane)) << (2u * k);
    const Logic v = lut[idx];
    const std::uint64_t bit = std::uint64_t{1} << lane;
    if (v == Logic::one)
      out.one |= bit;
    else if (v == Logic::x)
      out.x |= bit;
  }
  return out;
}

}  // namespace lv::sim
