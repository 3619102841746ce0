// The forward half of static timing analysis, shared by Sta::run and the
// dual-VT greedy: which nets end a timing path, how arrivals propagate
// from per-instance gate delays, and the latest endpoint arrival (the
// critical delay). Sta::run adds delays from the context, slacks and a
// path trace on top; an optimizer that only needs "does this delay
// assignment meet the period?" calls these directly over delays it
// caches, so both answer with the same arrivals bit for bit.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"

namespace lv::timing {

// Timing endpoints: primary outputs and nets feeding a sequential cell
// (flop D pins), in ascending net order.
std::vector<circuit::NetId> endpoint_nets(const circuit::Netlist& netlist);

// Arrival time at every net: primary inputs and flop outputs at 0, and a
// combinational instance's output at the max of its input arrivals (and
// 0) plus `instance_delay[i]`, in topo_order. `net_arrival` is resized
// to net_count; reusing one vector across calls does not allocate.
void propagate_arrivals(const circuit::Netlist& netlist,
                        const std::vector<double>& instance_delay,
                        std::vector<double>& net_arrival);

struct LatestArrival {
  double arrival = 0.0;  // max over endpoints, 0 when none is positive
  circuit::NetId net = circuit::kInvalidNet;  // first endpoint reaching it
};
LatestArrival latest_arrival(const std::vector<circuit::NetId>& endpoints,
                             const std::vector<double>& net_arrival);

// Throws check::InputError `sta.nonfinite` naming the first combinational
// instance (in topo_order) whose delay is NaN or infinite. A bad delay
// would poison every downstream arrival, and because NaN compares false
// the endpoint max would silently report 0 instead of failing.
void require_finite_delays(const circuit::Netlist& netlist,
                           const std::vector<double>& instance_delay);

}  // namespace lv::timing
