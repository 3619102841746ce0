// Retained copy of the dual-VT greedy as it ran before decisions moved to
// one arrival pass over cached gate delays: every decision is a full
// timing::Sta::run with slacks, required times and a path trace, the
// batch size is an argument, and a batch that misses the period is
// reverted and retried one by one. (The earlier code also pre-rejected,
// in parallel, retry candidates that missed the period alone; by
// monotonicity those also fail the serial retry, so dropping that filter
// leaves every decision unchanged.) It exists solely as the oracle for
// tests/opt_dualvt_test.cpp and the BM_DualVtAssignReference benchmark:
// assign_dual_vt must reproduce it bit for bit at every batch size. Kept
// deliberately close to the original source — do not "optimize" it; its
// independence from the production code is its value.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "analysis/analysis_context.hpp"
#include "opt/dual_vt.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"

namespace lv::opt::testing {

inline double reference_total_leakage(const circuit::Netlist& netlist,
                                      const tech::Process& process,
                                      double vdd,
                                      const std::vector<double>& shifts) {
  struct Flavour {
    double n_off;
    double p_off;
  };
  auto flavour = [&](double shift) {
    return Flavour{
        process.make_nmos(1.0, shift).off_current(vdd, 0.0, process.temp_k),
        process.make_pmos(1.0, shift).off_current(vdd, 0.0, process.temp_k)};
  };
  const Flavour low = flavour(0.0);
  const Flavour high = flavour(process.high_vt_offset);
  double acc = 0.0;
  for (circuit::InstanceId i = 0; i < netlist.instance_count(); ++i) {
    const auto& info = circuit::cell_info(netlist.instance(i).kind);
    const Flavour& f = shifts[i] == 0.0 ? low : high;
    acc += 0.5 * (f.n_off * info.n_width_total / info.n_stack +
                  f.p_off * info.p_width_total / info.p_stack);
  }
  return acc;
}

inline DualVtResult reference_assign_dual_vt(const circuit::Netlist& netlist,
                                             const tech::Process& process,
                                             double vdd, double period_margin,
                                             int retime_batch) {
  using circuit::InstanceId;
  util::require(process.high_vt_offset > 0.0,
                "assign_dual_vt: process has no high-VT flavor");
  util::require(retime_batch >= 1, "assign_dual_vt: batch must be >= 1");

  const analysis::AnalysisContext ctx{
      netlist, process, {.vdd = vdd, .temp_k = process.temp_k}};
  const timing::Sta sta{ctx};
  const std::size_t count = netlist.instance_count();
  std::vector<double> shifts(count, 0.0);

  DualVtResult result;
  result.use_high_vt.assign(count, false);
  int sta_evals = 0;

  const auto base = sta.run(1.0);
  result.delay_before = base.critical_delay;
  result.clock_period = base.critical_delay * (1.0 + period_margin);
  result.leakage_before =
      reference_total_leakage(netlist, process, vdd, shifts);

  const auto slacked = sta.run(result.clock_period);
  std::vector<InstanceId> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](InstanceId a, InstanceId b) {
    return slacked.instance_slack[a] > slacked.instance_slack[b];
  });

  std::vector<InstanceId> pending;
  auto commit_or_revert = [&]() {
    ++sta_evals;
    const auto timed = sta.run(result.clock_period, shifts);
    if (timed.critical_delay <= result.clock_period) {
      for (const InstanceId i : pending) result.use_high_vt[i] = true;
      result.high_vt_count += pending.size();
      pending.clear();
      return true;
    }
    for (const InstanceId i : pending) shifts[i] = 0.0;
    for (const InstanceId i : pending) {
      shifts[i] = process.high_vt_offset;
      ++sta_evals;
      const auto single = sta.run(result.clock_period, shifts);
      if (single.critical_delay <= result.clock_period) {
        result.use_high_vt[i] = true;
        ++result.high_vt_count;
      } else {
        shifts[i] = 0.0;
      }
    }
    pending.clear();
    return false;
  };

  for (const InstanceId i : order) {
    shifts[i] = process.high_vt_offset;
    pending.push_back(i);
    if (static_cast<int>(pending.size()) >= retime_batch) commit_or_revert();
  }
  if (!pending.empty()) commit_or_revert();

  const auto final_timing = sta.run(result.clock_period, shifts);
  sta_evals += 3;
  result.delay_after = final_timing.critical_delay;
  result.leakage_after =
      reference_total_leakage(netlist, process, vdd, shifts);
  const double slack = result.clock_period - result.delay_after;
  if (result.delay_after <= result.clock_period)
    result.status = Convergence::success(sta_evals, slack);
  else
    result.status = Convergence::failure(sta_evals, slack,
                                         "mixed-VT assignment misses the "
                                         "clock period despite reverts");
  return result;
}

}  // namespace lv::opt::testing
