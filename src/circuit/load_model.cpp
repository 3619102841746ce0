#include "circuit/load_model.hpp"

#include "device/capacitance.hpp"
#include "util/error.hpp"

namespace lv::circuit {

LoadModel::LoadModel(const Netlist& netlist, const tech::Process& process,
                     double vdd)
    : LoadModel{netlist, process, vdd,
                std::vector<double>(netlist.instance_count(), 1.0)} {}

LoadModel::LoadModel(const Netlist& netlist, const tech::Process& process,
                     double vdd, const std::vector<double>& instance_sizes)
    : netlist_{netlist}, process_{process}, vdd_{vdd}, sizes_{instance_sizes} {
  lv::util::require(vdd > 0.0, "LoadModel: vdd must be > 0");
  lv::util::require(instance_sizes.size() == netlist.instance_count(),
                    "LoadModel: instance_sizes count mismatch");

  gate_mult_.assign(netlist.net_count(), 0.0);
  parasitic_mult_.assign(netlist.net_count(), 0.0);
  wire_cap_.assign(netlist.net_count(), 0.0);
  loads_.assign(netlist.net_count(), 0.0);
  for (NetId n = 0; n < netlist.net_count(); ++n) refresh_net(n);
  retarget(vdd);
}

void LoadModel::refresh_net(NetId n) {
  // Receiver pins (scaled by each receiver's size).
  double a = 0.0;
  for (const InstanceId consumer : netlist_.fanout(n)) {
    const CellInfo& info = cell_info(netlist_.instance(consumer).kind);
    a += info.pin_gate_mult * sizes_[consumer];
  }
  gate_mult_[n] = a;
  // Driver parasitics (scaled by the driver's size).
  const Net& net = netlist_.net(n);
  if (net.driver != ~InstanceId{0}) {
    const CellInfo& info = cell_info(netlist_.instance(net.driver).kind);
    parasitic_mult_[n] =
        info.drive_mult * info.intrinsic_cap_mult * sizes_[net.driver];
  } else {
    parasitic_mult_[n] = 0.0;
  }
  // Wire estimate: one average segment per fanout pin.
  wire_cap_[n] = process_.wire_cap_per_m * process_.avg_wire_per_fanout *
                 static_cast<double>(netlist_.fanout(n).size());
}

void LoadModel::retarget(double new_vdd) {
  lv::util::require(new_vdd > 0.0, "LoadModel: vdd must be > 0");
  vdd_ = new_vdd;
  const device::InverterCaps unit = process_.unit_inverter_caps(vdd_);
  unit_input_cap_ = unit.n_input + unit.p_input;
  unit_parasitic_cap_ = unit.n_parasitic + unit.p_parasitic;
  for (NetId n = 0; n < netlist_.net_count(); ++n) evaluate_net(n);
}

void LoadModel::set_instance_size(InstanceId instance, double size) {
  lv::util::require(instance < netlist_.instance_count(),
                    "LoadModel: instance out of range");
  lv::util::require(size > 0.0, "LoadModel: size must be > 0");
  if (sizes_[instance] == size) return;
  sizes_[instance] = size;
  const Instance& inst = netlist_.instance(instance);
  for (const NetId in : inst.inputs) {
    refresh_net(in);
    evaluate_net(in);
  }
  if (inst.output != kInvalidNet) {
    refresh_net(inst.output);
    evaluate_net(inst.output);
  }
}

double LoadModel::total_cap() const {
  double total = 0.0;
  for (const double c : loads_) total += c;
  return total;
}

double LoadModel::module_cap(const std::string& module) const {
  double total = 0.0;
  for (NetId n = 0; n < netlist_.net_count(); ++n) {
    const Net& net = netlist_.net(n);
    if (net.driver == ~InstanceId{0}) continue;
    if (netlist_.instance(net.driver).module == module) total += loads_[n];
  }
  return total;
}

double LoadModel::clock_cap(const std::string& module) const {
  double total = 0.0;
  for (const InstanceId i : netlist_.sequential_instances()) {
    const Instance& inst = netlist_.instance(i);
    if (!module.empty() && inst.module != module) continue;
    total += cell_info(inst.kind).clock_cap_mult * unit_input_cap_;
  }
  // Clock routing: one wire segment per flop pin.
  if (netlist_.clock_net() != kInvalidNet) {
    std::size_t pins = 0;
    for (const InstanceId i : netlist_.sequential_instances()) {
      const Instance& inst = netlist_.instance(i);
      if (module.empty() || inst.module == module) ++pins;
    }
    total += process_.wire_cap_per_m * process_.avg_wire_per_fanout *
             static_cast<double>(pins);
  }
  return total;
}

}  // namespace lv::circuit
