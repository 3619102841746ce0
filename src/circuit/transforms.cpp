#include "circuit/transforms.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace lv::circuit {

namespace {

// Constant value of every net assuming primary inputs/flop outputs are
// unknown: Logic::x = not constant.
std::vector<Logic> fold_constants(const Netlist& nl) {
  std::vector<Logic> value(nl.net_count(), Logic::x);
  for (const InstanceId i : nl.topo_order()) {
    const Instance& inst = nl.instance(i);
    std::vector<Logic> ins;
    ins.reserve(inst.inputs.size());
    for (const NetId in : inst.inputs) ins.push_back(value[in]);
    value[inst.output] = evaluate_cell(inst.kind, ins);
  }
  return value;
}

// Instances transitively observable from primary outputs or flop D pins.
std::vector<bool> live_instances(const Netlist& nl) {
  std::vector<bool> net_live(nl.net_count(), false);
  std::queue<NetId> frontier;
  auto mark = [&](NetId n) {
    if (!net_live[n]) {
      net_live[n] = true;
      frontier.push(n);
    }
  };
  for (const NetId out : nl.primary_outputs()) mark(out);
  // Flops are observable state: their D cones stay live, and their Q nets
  // keep them alive (removed only if Q is itself dead — handled by
  // marking D inputs only for live flops below).
  std::vector<bool> inst_live(nl.instance_count(), false);
  while (!frontier.empty()) {
    const NetId n = frontier.front();
    frontier.pop();
    const InstanceId drv = nl.net(n).driver;
    if (drv == ~InstanceId{0}) continue;
    inst_live[drv] = true;
    for (const NetId in : nl.instance(drv).inputs) mark(in);
  }
  return inst_live;
}

}  // namespace

Netlist optimize_netlist(const Netlist& input, TransformStats* stats) {
  input.validate();
  const auto constants = fold_constants(input);
  const auto live = live_instances(input);

  TransformStats local;
  local.gates_before = input.instance_count();

  Netlist out;
  std::vector<NetId> net_map(input.net_count(), kInvalidNet);
  for (const NetId in : input.primary_inputs())
    net_map[in] = out.add_input(input.net(in).name);
  if (input.clock_net() != kInvalidNet)
    net_map[input.clock_net()] = out.add_clock(input.net(input.clock_net()).name);

  // Flop outputs feed the combinational cloud that is emitted first, so
  // pre-create their nets (the flop instances drive them later).
  for (const InstanceId i : input.sequential_instances())
    if (live[i])
      net_map[input.instance(i).output] =
          out.add_net(input.net(input.instance(i).output).name);

  // Emit surviving instances in topological order (sequential cells
  // afterwards — their inputs are produced by the combinational cloud).
  auto emit = [&](InstanceId i) {
    const Instance& inst = input.instance(i);
    const Logic folded = constants[inst.output];
    if (net_map[inst.output] == kInvalidNet)
      net_map[inst.output] = out.add_net(input.net(inst.output).name);
    if (is_known(folded) && !cell_info(inst.kind).sequential &&
        inst.kind != CellKind::tie0 && inst.kind != CellKind::tie1) {
      out.add_gate_onto(folded == Logic::zero ? CellKind::tie0
                                              : CellKind::tie1,
                        inst.name, {}, net_map[inst.output], inst.module);
      ++local.constants_folded;
      return;
    }
    std::vector<NetId> ins;
    ins.reserve(inst.inputs.size());
    for (const NetId in : inst.inputs) {
      lv::util::require(net_map[in] != kInvalidNet,
                        "optimize_netlist: input net not yet mapped");
      ins.push_back(net_map[in]);
    }
    out.add_gate_onto(inst.kind, inst.name, ins, net_map[inst.output],
                      inst.module);
  };

  for (const InstanceId i : input.topo_order()) {
    if (!live[i]) {
      ++local.dead_removed;
      continue;
    }
    emit(i);
  }
  for (const InstanceId i : input.sequential_instances()) {
    if (!live[i]) {
      ++local.dead_removed;
      continue;
    }
    emit(i);
  }

  for (const NetId o : input.primary_outputs()) {
    lv::util::require(net_map[o] != kInvalidNet,
                      "optimize_netlist: primary output lost");
    out.mark_output(net_map[o]);
  }
  out.validate();
  local.gates_after = out.instance_count();
  if (stats != nullptr) *stats = local;
  return out;
}

Netlist insert_fanout_buffers(const Netlist& input, int max_fanout,
                              TransformStats* stats) {
  lv::util::require(max_fanout >= 2,
                    "insert_fanout_buffers: max_fanout must be >= 2");
  input.validate();

  TransformStats local;
  local.gates_before = input.instance_count();

  Netlist out;
  std::vector<NetId> net_map(input.net_count(), kInvalidNet);
  for (const NetId in : input.primary_inputs())
    net_map[in] = out.add_input(input.net(in).name);
  if (input.clock_net() != kInvalidNet)
    net_map[input.clock_net()] =
        out.add_clock(input.net(input.clock_net()).name);

  // Pre-map flop outputs: the combinational cloud that consumes them is
  // emitted before the flop instances themselves.
  for (const InstanceId i : input.sequential_instances())
    net_map[input.instance(i).output] =
        out.add_net(input.net(input.instance(i).output).name);

  // Per consumed pin, which (possibly buffered) net to use. A chained
  // buffer tree: each segment (the original net and every buffer output)
  // reserves one pin for the link to the next buffer, so no segment
  // exceeds the limit even counting the buffers' own input pins.
  const auto fanout_limit = static_cast<std::size_t>(max_fanout);
  std::vector<std::vector<NetId>> buffered(input.net_count());
  std::vector<std::size_t> pin_counter(input.net_count(), 0);
  auto pin_net = [&](NetId original) -> NetId {
    const std::size_t pin = pin_counter[original]++;
    if (input.fanout_pins(original) <= fanout_limit) return net_map[original];
    const std::size_t direct = fanout_limit - 1;  // one slot for buffer 0
    if (pin < direct) return net_map[original];
    const std::size_t buf_index = (pin - direct) / (fanout_limit - 1);
    auto& bufs = buffered[original];
    while (bufs.size() <= buf_index) {
      const NetId feed = bufs.empty() ? net_map[original] : bufs.back();
      const std::string name = input.net(original).name + "_buf" +
                               std::to_string(bufs.size());
      bufs.push_back(out.add_gate(CellKind::buf, name, {feed}));
      ++local.buffers_inserted;
    }
    return bufs[buf_index];
  };

  auto emit = [&](InstanceId i) {
    const Instance& inst = input.instance(i);
    if (net_map[inst.output] == kInvalidNet)
      net_map[inst.output] = out.add_net(input.net(inst.output).name);
    std::vector<NetId> ins;
    ins.reserve(inst.inputs.size());
    for (const NetId in : inst.inputs) {
      // The clock net stays un-buffered: flop clock pins must all see the
      // netlist clock (validate() enforces it), and clock distribution is
      // modelled separately.
      ins.push_back(input.net(in).is_clock ? net_map[in] : pin_net(in));
    }
    out.add_gate_onto(inst.kind, inst.name, ins, net_map[inst.output],
                      inst.module);
  };

  for (const InstanceId i : input.topo_order()) emit(i);
  for (const InstanceId i : input.sequential_instances()) emit(i);

  for (const NetId o : input.primary_outputs()) out.mark_output(net_map[o]);
  out.validate();
  local.gates_after = out.instance_count();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace lv::circuit
