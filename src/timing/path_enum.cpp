#include "timing/path_enum.hpp"

#include <algorithm>
#include <queue>

#include "timing/arrival.hpp"
#include "util/error.hpp"

namespace lv::timing {

namespace u = lv::util;
using circuit::InstanceId;
using circuit::NetId;

namespace {

// Walks one path backwards from `endpoint_net`, always following the
// input with the latest arrival except at `branch_depth`, where the
// second-latest input is taken (generating path diversity).
TimingPath trace_path(const circuit::Netlist& nl, const StaResult& sta,
                      NetId endpoint_net, int branch_depth) {
  TimingPath path;
  path.arrival = sta.net_arrival[endpoint_net];
  NetId n = endpoint_net;
  int depth = 0;
  while (n != circuit::kInvalidNet) {
    const InstanceId drv = nl.net(n).driver;
    if (drv == ~InstanceId{0}) break;
    if (circuit::cell_info(nl.instance(drv).kind).sequential) break;
    path.instances.push_back(drv);
    // Rank this gate's inputs by arrival.
    const auto& inputs = nl.instance(drv).inputs;
    NetId best = circuit::kInvalidNet;
    NetId second = circuit::kInvalidNet;
    double best_t = -1.0;
    double second_t = -1.0;
    for (const NetId in : inputs) {
      const double t = sta.net_arrival[in];
      if (t > best_t) {
        second = best;
        second_t = best_t;
        best = in;
        best_t = t;
      } else if (t > second_t) {
        second = in;
        second_t = t;
      }
    }
    const bool branch_here = depth == branch_depth &&
                             second != circuit::kInvalidNet &&
                             second_t > 0.0;
    n = branch_here ? second : (best_t > 0.0 ? best : circuit::kInvalidNet);
    ++depth;
  }
  std::reverse(path.instances.begin(), path.instances.end());
  return path;
}

}  // namespace

std::vector<TimingPath> enumerate_critical_paths(
    const circuit::Netlist& netlist, const StaResult& sta, int k) {
  u::require(k >= 1 && k <= 64, "enumerate_critical_paths: k in [1, 64]");

  // Endpoints sorted by arrival, latest first.
  std::vector<NetId> endpoints = endpoint_nets(netlist);
  std::erase_if(endpoints,
                [&](NetId n) { return !(sta.net_arrival[n] > 0.0); });
  std::sort(endpoints.begin(), endpoints.end(), [&](NetId a, NetId b) {
    return sta.net_arrival[a] > sta.net_arrival[b];
  });

  std::vector<TimingPath> paths;
  // First the straight critical path per endpoint, then branched variants
  // of the worst endpoint until k paths are collected.
  for (const NetId ep : endpoints) {
    if (static_cast<int>(paths.size()) >= k) break;
    paths.push_back(trace_path(netlist, sta, ep, -1));
  }
  for (int branch = 0;
       static_cast<int>(paths.size()) < k && !endpoints.empty() &&
       branch < 32;
       ++branch) {
    TimingPath variant = trace_path(netlist, sta, endpoints.front(), branch);
    // Deduplicate against existing paths.
    const bool duplicate =
        std::any_of(paths.begin(), paths.end(), [&](const TimingPath& p) {
          return p.instances == variant.instances;
        });
    if (!duplicate && !variant.instances.empty())
      paths.push_back(std::move(variant));
  }
  std::sort(paths.begin(), paths.end(),
            [](const TimingPath& a, const TimingPath& b) {
              return a.arrival > b.arrival;
            });
  if (static_cast<int>(paths.size()) > k) paths.resize(static_cast<std::size_t>(k));
  return paths;
}

lv::util::Histogram slack_histogram(const StaResult& sta,
                                    double clock_period, std::size_t bins) {
  u::require(clock_period > 0.0, "slack_histogram: period must be > 0");
  lv::util::Histogram hist{-clock_period, clock_period, bins};
  for (const double s : sta.instance_slack)
    hist.add(std::min(s, clock_period * 0.999));
  return hist;
}

double total_arrival_imbalance(const circuit::Netlist& netlist,
                               const StaResult& sta) {
  double total = 0.0;
  for (InstanceId i = 0; i < netlist.instance_count(); ++i) {
    const auto& inputs = netlist.instance(i).inputs;
    if (inputs.size() < 2) continue;
    double lo = 1e300;
    double hi = 0.0;
    for (const NetId in : inputs) {
      lo = std::min(lo, sta.net_arrival[in]);
      hi = std::max(hi, sta.net_arrival[in]);
    }
    total += hi - lo;
  }
  return total;
}

}  // namespace lv::timing
