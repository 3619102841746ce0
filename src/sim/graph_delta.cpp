#include "sim/graph_delta.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/graph_access.hpp"

namespace lv::sim {

using circuit::CellInfo;
using circuit::CellKind;
using circuit::InstanceId;
using circuit::Logic;
using circuit::NetId;

namespace {

// Whether the incremental path ran is a function of what happens to be
// in the cache, so these are scheduling counters.
lv::obs::Counter& c_incremental() {
  static auto& c = lv::obs::Registry::global().counter(
      "sim.incremental_recompiles", lv::obs::Stability::scheduling);
  return c;
}
lv::obs::Counter& c_fallback() {
  static auto& c = lv::obs::Registry::global().counter(
      "sim.incremental_fallbacks", lv::obs::Stability::scheduling);
  return c;
}

}  // namespace

GraphDelta diff_netlists(const circuit::Netlist& base,
                         const circuit::Netlist& edited) {
  GraphDelta delta;
  if (base.net_count() != edited.net_count() ||
      base.instance_count() != edited.instance_count() ||
      base.clock_net() != edited.clock_net() ||
      base.primary_inputs() != edited.primary_inputs() ||
      base.primary_outputs() != edited.primary_outputs())
    return delta;
  for (NetId n = 0; n < base.net_count(); ++n) {
    const auto& a = base.net(n);
    const auto& b = edited.net(n);
    if (a.name != b.name || a.is_primary_input != b.is_primary_input ||
        a.is_primary_output != b.is_primary_output ||
        a.is_clock != b.is_clock)
      return delta;
  }
  for (InstanceId i = 0; i < base.instance_count(); ++i) {
    const auto& a = base.instance(i);
    const auto& b = edited.instance(i);
    if (a.name != b.name || a.output != b.output || a.module != b.module)
      return delta;
    if (a.kind != b.kind || a.inputs != b.inputs) delta.changed.push_back(i);
  }
  delta.aligned = true;
  return delta;
}

std::shared_ptr<const SimGraph> recompile_incremental(
    const SimGraph& base_graph, const circuit::Netlist& edited,
    const GraphDelta& delta) {
  if (!delta.aligned) {
    c_fallback().add(1);
    return nullptr;
  }

  const auto& base = base_graph.netlist();
  bool rewired = false;
  bool arity_changed = false;
  bool tie_changed = false;
  for (const InstanceId i : delta.changed) {
    const auto& old_inst = base.instance(i);
    const auto& new_inst = edited.instance(i);
    const CellInfo& info = circuit::cell_info(new_inst.kind);
    // A combinational<->sequential flip restructures the eval CSR and
    // the flop schedule; that edit pays for a full compile.
    const std::uint8_t seq = info.sequential ? 1 : 0;
    if (seq != base_graph.nodes()[i].sequential) {
      c_fallback().add(1);
      return nullptr;
    }
    if (old_inst.inputs != new_inst.inputs) rewired = true;
    if (old_inst.inputs.size() != new_inst.inputs.size())
      arity_changed = true;
    if (old_inst.kind == CellKind::tie0 || old_inst.kind == CellKind::tie1 ||
        new_inst.kind == CellKind::tie0 || new_inst.kind == CellKind::tie1)
      tie_changed = true;
  }

  using GA = detail::GraphAccess;
  auto g = GA::raw(edited);

  // Carry the base graph over verbatim, then patch the touched cones.
  GA::net_count(*g) = base_graph.net_count();
  GA::nodes(*g) = base_graph.nodes();
  GA::input_nets(*g) = base_graph.input_nets();
  GA::eval_offsets(*g) = base_graph.eval_offsets();
  GA::eval_list(*g) = base_graph.eval_list();
  GA::sequential(*g) = base_graph.sequential_instances();
  GA::tie_inits(*g) = base_graph.tie_inits();
  GA::net_is_input(*g) = GA::net_is_input(base_graph);

  auto& nodes = GA::nodes(*g);
  for (const InstanceId i : delta.changed)
    nodes[i].kind = static_cast<std::uint8_t>(edited.instance(i).kind);

  if (arity_changed) {
    // Pin spans shift: relay the flat input array in instance order,
    // exactly as a full compile would.
    auto& input_nets = GA::input_nets(*g);
    input_nets.clear();
    for (InstanceId i = 0; i < edited.instance_count(); ++i) {
      const auto& inst = edited.instance(i);
      nodes[i].in_begin = static_cast<std::uint32_t>(input_nets.size());
      nodes[i].in_count = static_cast<std::uint8_t>(inst.inputs.size());
      input_nets.insert(input_nets.end(), inst.inputs.begin(),
                        inst.inputs.end());
    }
  } else if (rewired) {
    // Same arity everywhere: patch the changed instances' pin spans in
    // place.
    auto& input_nets = GA::input_nets(*g);
    for (const InstanceId i : delta.changed) {
      const auto& inst = edited.instance(i);
      std::copy(inst.inputs.begin(), inst.inputs.end(),
                input_nets.begin() + nodes[i].in_begin);
    }
  }

  if (rewired) {
    // Consumer sets moved: rebuild the combinational-consumer CSR from
    // the edited netlist's fanout cache (same filter, same order as a
    // full compile).
    const auto& full_offsets = edited.fanout_offsets();
    const auto& full_list = edited.fanout_list();
    auto& eval_offsets = GA::eval_offsets(*g);
    auto& eval_list = GA::eval_list(*g);
    eval_offsets.assign(edited.net_count() + 1, 0);
    eval_list.clear();
    for (NetId n = 0; n < edited.net_count(); ++n) {
      for (std::uint32_t k = full_offsets[n]; k < full_offsets[n + 1]; ++k) {
        const InstanceId consumer = full_list[k];
        if (nodes[consumer].sequential == 0) eval_list.push_back(consumer);
      }
      eval_offsets[n + 1] = static_cast<std::uint32_t>(eval_list.size());
    }
  }

  if (tie_changed) {
    auto& ties = GA::tie_inits(*g);
    ties.clear();
    for (InstanceId i = 0; i < edited.instance_count(); ++i) {
      const auto& inst = edited.instance(i);
      if (inst.kind == CellKind::tie0)
        ties.push_back({inst.output, Logic::zero});
      else if (inst.kind == CellKind::tie1)
        ties.push_back({inst.output, Logic::one});
    }
  }

  c_incremental().add(1);
  return g;
}

}  // namespace lv::sim
