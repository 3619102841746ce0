#include "timing/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "check/codes.hpp"
#include "check/diag.hpp"

namespace lv::timing {

using circuit::InstanceId;
using circuit::NetId;

std::vector<NetId> endpoint_nets(const circuit::Netlist& netlist) {
  std::vector<char> endpoint(netlist.net_count(), 0);
  for (NetId n = 0; n < netlist.net_count(); ++n)
    endpoint[n] = netlist.net(n).is_primary_output ? 1 : 0;
  for (const InstanceId i : netlist.sequential_instances())
    for (const NetId in : netlist.instance(i).inputs) endpoint[in] = 1;
  std::vector<NetId> out;
  for (NetId n = 0; n < netlist.net_count(); ++n)
    if (endpoint[n] != 0) out.push_back(n);
  return out;
}

void propagate_arrivals(const circuit::Netlist& netlist,
                        const std::vector<double>& instance_delay,
                        std::vector<double>& net_arrival) {
  net_arrival.assign(netlist.net_count(), 0.0);
  for (const InstanceId i : netlist.topo_order()) {
    const auto& inst = netlist.instance(i);
    double arrive = 0.0;
    for (const NetId in : inst.inputs)
      arrive = std::max(arrive, net_arrival[in]);
    net_arrival[inst.output] = arrive + instance_delay[i];
  }
}

LatestArrival latest_arrival(const std::vector<NetId>& endpoints,
                             const std::vector<double>& net_arrival) {
  LatestArrival latest;
  for (const NetId n : endpoints) {
    if (net_arrival[n] > latest.arrival) {
      latest.arrival = net_arrival[n];
      latest.net = n;
    }
  }
  return latest;
}

void require_finite_delays(const circuit::Netlist& netlist,
                           const std::vector<double>& instance_delay) {
  for (const InstanceId i : netlist.topo_order()) {
    if (std::isfinite(instance_delay[i])) continue;
    const auto& inst = netlist.instance(i);
    throw check::InputError(
        check::codes::sta_nonfinite,
        "Sta: gate '" + inst.name + "' (" +
            std::string(circuit::cell_info(inst.kind).name) +
            ") produced a non-finite delay (" +
            std::to_string(instance_delay[i]) +
            "); check the process parameters and operating point");
  }
}

}  // namespace lv::timing
