#include "opt/dual_vt.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/analysis_context.hpp"
#include "device/stack.hpp"
#include "exec/parallel.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace lv::opt {

namespace u = lv::util;
using circuit::InstanceId;

namespace {

double total_leakage(const circuit::Netlist& netlist,
                     const tech::Process& process, double vdd,
                     const std::vector<double>& shifts) {
  // Average of N and P network off-currents per instance, weighted by the
  // catalog widths; consistent with PowerEstimator's state averaging but
  // kept local so lv_opt does not depend on activity statistics.
  // `shifts` holds only 0 (low VT) and high_vt_offset (high VT), so each
  // flavour's unit off-currents are evaluated once per call. parallel_sum
  // folds the per-instance terms in instance order, matching the serial
  // accumulation bit for bit.
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
  return exec::parallel_sum(netlist.instance_count(), [&](std::size_t idx) {
    const auto i = static_cast<InstanceId>(idx);
    const auto& info = circuit::cell_info(netlist.instance(i).kind);
    const Flavour& f = shifts[i] == 0.0 ? low : high;
    return 0.5 * (f.n_off * info.n_width_total / info.n_stack +
                  f.p_off * info.p_width_total / info.p_stack);
  });
}

}  // namespace

DualVtResult assign_dual_vt(const circuit::Netlist& netlist,
                            const tech::Process& process, double vdd,
                            double period_margin, int retime_batch) {
  u::require(process.high_vt_offset > 0.0,
             "assign_dual_vt: process has no high-VT flavor");
  u::require(retime_batch >= 1, "assign_dual_vt: batch must be >= 1");

  // Shared context: every re-timing pass of the greedy reuses one load
  // extraction and the memoized low/high-VT drive parameters (the VT
  // flavors alternate, so the memo hits on all but the first pass).
  const analysis::AnalysisContext ctx{
      netlist, process, {.vdd = vdd, .temp_k = process.temp_k}};
  const timing::Sta sta{ctx};
  const std::size_t count = netlist.instance_count();
  std::vector<double> shifts(count, 0.0);

  DualVtResult result;
  result.use_high_vt.assign(count, false);
  int sta_evals = 0;

  const auto base = sta.run(1.0);  // period irrelevant for delays
  result.delay_before = base.critical_delay;
  result.clock_period = base.critical_delay * (1.0 + period_margin);
  result.leakage_before = total_leakage(netlist, process, vdd, shifts);

  // Candidate order: most slack first (computed once against the target
  // period; the greedy loop re-times as it commits).
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
    // Revert the whole batch, then retry its members one by one so a
    // single bad gate does not block the rest.
    for (const InstanceId i : pending) shifts[i] = 0.0;
    // Parallel prefilter: STA delay is monotone non-decreasing in the VT
    // shifts, so a candidate that misses the period *alone* against the
    // committed baseline also misses it in the accumulated serial retry
    // below. Rejecting those in parallel and replaying only the
    // survivors serially (in order, with accumulation) makes the same
    // decisions as the all-serial retry, bit for bit.
    sta_evals += static_cast<int>(pending.size());
    const auto alone_ok = exec::parallel_map_stateful<char>(
        pending.size(), [&] { return ctx.clone(); },
        [&](analysis::AnalysisContext& wctx, std::size_t k) {
          std::vector<double> local = shifts;
          local[pending[k]] = process.high_vt_offset;
          const timing::Sta wsta{wctx};
          const auto single = wsta.run(result.clock_period, local);
          return static_cast<char>(single.critical_delay <=
                                   result.clock_period);
        });
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (!alone_ok[k]) continue;
      const InstanceId i = pending[k];
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
  sta_evals += 3;  // base, slack ordering, and this final pass
  result.delay_after = final_timing.critical_delay;
  result.leakage_after = total_leakage(netlist, process, vdd, shifts);
  const double slack = result.clock_period - result.delay_after;
  if (result.delay_after <= result.clock_period)
    result.status = Convergence::success(sta_evals, slack);
  else
    result.status = Convergence::failure(
        sta_evals, slack,
        "mixed-VT assignment misses the clock period by " +
            std::to_string(-slack) + " s despite reverts");
  return result;
}

MtcmosSizing size_sleep_transistor(const tech::Process& process, double vdd,
                                   double logic_width_mult,
                                   double peak_current, double max_penalty) {
  u::require(max_penalty > 1.0, "size_sleep_transistor: penalty must be > 1");
  MtcmosSizing out;
  const auto logic_equiv = process.make_nmos(logic_width_mult);
  out.unguarded_leakage = logic_equiv.off_current(vdd, 0.0, process.temp_k);

  auto penalty_at = [&](double w) {
    const auto sleep = process.make_high_vt_nmos(w);
    return device::mtcmos_delay_penalty(sleep, peak_current, vdd,
                                        process.temp_k);
  };
  // Penalty decreases monotonically with width; find the smallest width
  // meeting the bound by bisection over a generous range.
  const double w_lo = 0.1;
  const double w_hi = 20.0 * logic_width_mult + 10.0;
  if (penalty_at(w_hi) > max_penalty) {
    // Unbracketable: the bound is violated even at the widest footer, so
    // no width in (0, w_hi] can meet it.
    out.status = Convergence::failure(
        1, penalty_at(w_hi) - max_penalty,
        "delay penalty bound " + std::to_string(max_penalty) +
            " unreachable: even a " + std::to_string(w_hi) +
            "x footer gives " + std::to_string(penalty_at(w_hi)));
    return out;
  }
  double lo = w_lo;
  double hi = w_hi;
  int iters = 0;
  if (penalty_at(w_lo) <= max_penalty) {
    hi = w_lo;
  } else {
    for (; iters < 80 && (hi - lo) > 1e-3; ++iters) {
      const double mid = 0.5 * (lo + hi);
      (penalty_at(mid) <= max_penalty ? hi : lo) = mid;
    }
  }
  out.status = Convergence::success(iters, hi - lo);
  out.sleep_width_mult = hi;
  out.delay_penalty = penalty_at(hi);
  const auto sleep = process.make_high_vt_nmos(hi);
  out.standby_leakage =
      device::mtcmos_standby_leakage(logic_equiv, sleep, vdd, process.temp_k)
          .current;
  out.feasible = true;
  return out;
}

double netlist_nmos_width(const circuit::Netlist& netlist) {
  double total = 0.0;
  for (const auto& inst : netlist.instances())
    total += circuit::cell_info(inst.kind).n_width_total;
  return total;
}

double netlist_peak_current(const circuit::Netlist& netlist,
                            const tech::Process& process, double vdd,
                            double simultaneous_fraction) {
  const auto n = process.make_nmos(1.0);
  const double unit_on = n.on_current(vdd, 0.0, process.temp_k);
  double drive_total = 0.0;
  for (const auto& inst : netlist.instances())
    drive_total += circuit::cell_info(inst.kind).drive_mult;
  return simultaneous_fraction * drive_total * unit_on;
}

}  // namespace lv::opt
