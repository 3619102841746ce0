#include "timing/sta.hpp"

#include <algorithm>
#include <limits>

#include "timing/arrival.hpp"
#include "util/error.hpp"

namespace lv::timing {

namespace u = lv::util;
using circuit::InstanceId;
using circuit::NetId;

Sta::Sta(const circuit::Netlist& netlist, const tech::Process& process,
         double vdd)
    : owned_{std::make_shared<analysis::AnalysisContext>(
          netlist, process, analysis::OperatingPoint{.vdd = vdd})},
      ctx_{owned_.get()} {}

Sta::Sta(const analysis::AnalysisContext& ctx) : ctx_{&ctx} {}

StaResult Sta::run(double clock_period) const {
  return run(clock_period,
             std::vector<double>(ctx_->netlist().instance_count(), 0.0));
}

StaResult Sta::run(double clock_period,
                   const std::vector<double>& instance_vt_shift) const {
  return run_impl(clock_period, instance_vt_shift, nullptr, ctx_->loads());
}

StaResult Sta::run(double clock_period,
                   const std::vector<double>& instance_vt_shift,
                   const std::vector<double>& instance_sizes) const {
  u::require(instance_sizes.size() == ctx_->netlist().instance_count(),
             "Sta: size vector size mismatch");
  const circuit::LoadModel sized_loads{ctx_->netlist(), ctx_->process(),
                                       ctx_->operating_point().vdd,
                                       instance_sizes};
  return run_impl(clock_period, instance_vt_shift, &instance_sizes,
                  sized_loads);
}

StaResult Sta::run_with_loads(double clock_period,
                              const std::vector<double>& instance_vt_shift,
                              const circuit::LoadModel& loads) const {
  u::require(loads.instance_sizes().size() ==
                 ctx_->netlist().instance_count(),
             "Sta: loads instance count mismatch");
  return run_impl(clock_period, instance_vt_shift, &loads.instance_sizes(),
                  loads);
}

StaResult Sta::run_impl(double clock_period,
                        const std::vector<double>& instance_vt_shift,
                        const std::vector<double>* instance_sizes,
                        const circuit::LoadModel& loads) const {
  const circuit::Netlist& netlist = ctx_->netlist();
  u::require(instance_vt_shift.size() == netlist.instance_count(),
             "Sta: vt_shift vector size mismatch");

  StaResult r;
  r.instance_delay.assign(netlist.instance_count(), 0.0);
  r.instance_slack.assign(netlist.instance_count(),
                          std::numeric_limits<double>::infinity());

  // Gate delays, then arrivals in topological order. Drive parameters per
  // VT flavor come from the context's memo (shared across run calls and
  // across operating points, unlike the per-run cache this replaced).
  const auto& order = netlist.topo_order();
  for (const InstanceId i : order) {
    const auto& inst = netlist.instance(i);
    const double size =
        instance_sizes == nullptr ? 1.0 : (*instance_sizes)[i];
    const auto& info = circuit::cell_info(inst.kind);
    r.instance_delay[i] =
        ctx_->delay_for_load(loads.net_load(inst.output),
                             info.drive_mult * size, instance_vt_shift[i]);
  }
  require_finite_delays(netlist, r.instance_delay);
  propagate_arrivals(netlist, r.instance_delay, r.net_arrival);

  const std::vector<NetId> endpoints = endpoint_nets(netlist);
  const LatestArrival latest = latest_arrival(endpoints, r.net_arrival);
  r.critical_delay = latest.arrival;
  const NetId worst_net = latest.net;

  // Trace one critical path backwards from the worst endpoint.
  {
    NetId n = worst_net;
    while (n != circuit::kInvalidNet) {
      const InstanceId drv = netlist.net(n).driver;
      if (drv == ~InstanceId{0}) break;
      const auto& inst = netlist.instance(drv);
      if (circuit::cell_info(inst.kind).sequential) break;
      r.critical_path.push_back(drv);
      // Predecessor with the latest arrival dominates.
      NetId next = circuit::kInvalidNet;
      double best = -1.0;
      for (const NetId in : inst.inputs) {
        if (r.net_arrival[in] > best) {
          best = r.net_arrival[in];
          next = in;
        }
      }
      n = (best > 0.0) ? next : circuit::kInvalidNet;
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
  }

  // Backward pass: required times against the clock period.
  std::vector<double> net_required(netlist.net_count(),
                                   std::numeric_limits<double>::infinity());
  for (const NetId n : endpoints) net_required[n] = clock_period;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const InstanceId i = *it;
    const auto& inst = netlist.instance(i);
    const double input_required =
        net_required[inst.output] - r.instance_delay[i];
    for (const NetId in : inst.inputs)
      net_required[in] = std::min(net_required[in], input_required);
    r.instance_slack[i] = net_required[inst.output] -
                          r.net_arrival[inst.output];
  }
  return r;
}

}  // namespace lv::timing
