#include "circuit/netlist.hpp"

#include <algorithm>
#include <queue>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "util/error.hpp"

namespace lv::circuit {

namespace u = lv::util;

NetId Netlist::add_net(const std::string& name) {
  u::require(!name.empty(), "Netlist: net name must not be empty");
  const NetId id = static_cast<NetId>(nets_.size());
  if (!net_by_name_.emplace(name, id).second)
    throw u::Error("Netlist: duplicate net name '" + name + "'");
  nets_.push_back(Net{name, false, false, false, ~InstanceId{0}});
  structure_.drop();
  return id;
}

NetId Netlist::add_input(const std::string& name) {
  const NetId id = add_net(name);
  nets_[id].is_primary_input = true;
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_clock(const std::string& name) {
  u::require(clock_ == kInvalidNet, "Netlist: clock already defined");
  const NetId id = add_net(name);
  nets_[id].is_clock = true;
  clock_ = id;
  return id;
}

void Netlist::mark_output(NetId net) {
  nets_.at(net).is_primary_output = true;
  outputs_.push_back(net);
  structure_.drop();
}

NetId Netlist::add_gate(CellKind kind, const std::string& name,
                        const std::vector<NetId>& inputs,
                        const std::string& module) {
  const NetId out = add_net(name + "_o");
  return add_gate_onto(kind, name, inputs, out, module);
}

NetId Netlist::add_gate_onto(CellKind kind, const std::string& name,
                             const std::vector<NetId>& inputs, NetId out,
                             const std::string& module) {
  const CellInfo& info = cell_info(kind);
  if (inputs.size() != static_cast<std::size_t>(info.input_count))
    throw check::InputError(check::codes::net_arity,
                            "Netlist: gate '" + name + "' (" +
                                std::string(info.name) +
                                ") has wrong input count");
  for (const NetId in : inputs)
    u::require(in < nets_.size(), "Netlist: gate input net out of range");
  u::require(out < nets_.size(), "Netlist: gate output net out of range");
  if (nets_[out].driver != ~InstanceId{0} || nets_[out].is_primary_input)
    throw check::InputError(
        check::codes::net_multi_driver,
        "Netlist: net '" + nets_[out].name + "' already driven");
  const InstanceId id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(Instance{name, kind, inputs, out, module});
  nets_[out].driver = id;
  structure_.drop();
  return out;
}

NetId Netlist::find_net(std::string_view name) const {
  const auto it = net_by_name_.find(name);
  return it == net_by_name_.end() ? kInvalidNet : it->second;
}

Netlist::Structure Netlist::build_structure() const {
  Structure s;
  // CSR fanout: one counting pass, prefix sum, one fill pass. Filling in
  // ascending instance order preserves the historical per-net consumer
  // order (instance ids ascending), which the event kernel's evaluation
  // order — and therefore its bit-exact statistics — depends on.
  auto& offsets = s.fanout_offsets;
  offsets.assign(nets_.size() + 1, 0);
  for (const Instance& inst : instances_)
    for (const NetId in : inst.inputs) ++offsets[in + 1];
  for (std::size_t n = 1; n <= nets_.size(); ++n)
    offsets[n] += offsets[n - 1];
  s.fanout_list.resize(offsets[nets_.size()]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (InstanceId i = 0; i < instances_.size(); ++i)
    for (const NetId in : instances_[i].inputs)
      s.fanout_list[cursor[in]++] = i;

  // Kahn topological sort over combinational instances only, counting
  // one predecessor per pin. Sequential outputs behave as sources;
  // sequential inputs as sinks.
  auto sequential = [this](InstanceId i) {
    return cell_info(instances_[i].kind).sequential;
  };
  std::vector<int> pending(instances_.size(), 0);
  std::queue<InstanceId> ready;
  for (InstanceId i = 0; i < instances_.size(); ++i) {
    if (sequential(i)) {
      s.flops.push_back(i);
      continue;
    }
    for (const NetId in : instances_[i].inputs) {
      const InstanceId drv = nets_[in].driver;
      if (drv != ~InstanceId{0} && !sequential(drv)) ++pending[i];
    }
    if (pending[i] == 0) ready.push(i);
  }
  while (!ready.empty()) {
    const InstanceId i = ready.front();
    ready.pop();
    s.topo.push_back(i);
    const NetId out = instances_[i].output;
    for (std::uint32_t k = offsets[out]; k < offsets[out + 1]; ++k) {
      const InstanceId consumer = s.fanout_list[k];
      if (!sequential(consumer) && --pending[consumer] == 0)
        ready.push(consumer);
    }
  }
  for (InstanceId i = 0; i < instances_.size(); ++i)
    if (pending[i] != 0) s.cyclic.push_back(i);
  return s;
}

const Netlist::Structure& Netlist::structure() const {
  if (!structure_.built) {
    const std::lock_guard lock{structure_.mu};
    if (!structure_.built) {
      structure_.value = build_structure();
      structure_.built = true;
    }
  }
  return structure_.value;
}

std::span<const InstanceId> Netlist::fanout(NetId net) const {
  if (net >= nets_.size()) throw u::Error("Netlist: fanout net out of range");
  const Structure& s = structure();
  return {s.fanout_list.data() + s.fanout_offsets[net],
          s.fanout_offsets[net + 1] - s.fanout_offsets[net]};
}

const std::vector<InstanceId>& Netlist::topo_order() const {
  visit_cycle_rule(check::rule::throw_first);
  return structure().topo;
}

// Names the first few gates no order can place, in instance order.
std::string Netlist::cycle_message() const {
  const auto& cyclic = structure().cyclic;
  std::string message = "combinational cycle through " +
                        std::to_string(cyclic.size()) +
                        " gate(s), including: ";
  for (std::size_t k = 0; k < cyclic.size() && k < 8; ++k) {
    if (k > 0) message += ", ";
    message += instances_[cyclic[k]].name;
  }
  return message;
}

std::vector<int> Netlist::levelize() const {
  const auto& order = topo_order();
  std::vector<int> level(instances_.size(), 0);
  std::vector<int> net_level(nets_.size(), 0);
  for (const InstanceId i : order) {
    int lv_in = 0;
    for (const NetId in : instances_[i].inputs)
      lv_in = std::max(lv_in, net_level[in]);
    level[i] = lv_in + 1;
    net_level[instances_[i].output] = level[i];
  }
  return level;
}

std::vector<std::string> Netlist::modules() const {
  std::vector<std::string> out;
  for (const Instance& inst : instances_) {
    if (inst.module.empty()) continue;
    if (std::find(out.begin(), out.end(), inst.module) == out.end())
      out.push_back(inst.module);
  }
  return out;
}

std::unordered_map<std::string, std::size_t> Netlist::kind_histogram() const {
  std::unordered_map<std::string, std::size_t> hist;
  for (const Instance& inst : instances_)
    ++hist[std::string(cell_info(inst.kind).name)];
  return hist;
}

void Netlist::validate() const { visit_rules(check::rule::throw_first); }

}  // namespace lv::circuit
