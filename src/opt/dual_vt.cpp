#include "opt/dual_vt.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "analysis/analysis_context.hpp"
#include "device/stack.hpp"
#include "timing/arrival.hpp"
#include "util/error.hpp"

namespace lv::opt {

namespace u = lv::util;
using circuit::InstanceId;

namespace {

double total_leakage(const circuit::Netlist& netlist,
                     const tech::Process& process, double vdd,
                     const std::vector<bool>& use_high_vt) {
  // Average of N and P network off-currents per instance, weighted by the
  // catalog widths; consistent with PowerEstimator's state averaging but
  // kept local so lv_opt does not depend on activity statistics. Each
  // flavour's unit off-currents are evaluated once per call.
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
  double total = 0.0;
  for (InstanceId i = 0; i < netlist.instance_count(); ++i) {
    const auto& info = circuit::cell_info(netlist.instance(i).kind);
    const Flavour& f = use_high_vt[i] ? high : low;
    total += 0.5 * (f.n_off * info.n_width_total / info.n_stack +
                    f.p_off * info.p_width_total / info.p_stack);
  }
  return total;
}

// Candidates tried together; any batch size gives the same assignment.
constexpr std::size_t kBatch = 8;

}  // namespace

DualVtResult assign_dual_vt(const circuit::Netlist& netlist,
                            const tech::Process& process, double vdd,
                            double period_margin) {
  u::require(process.high_vt_offset > 0.0,
             "assign_dual_vt: process has no high-VT flavor");

  const analysis::AnalysisContext ctx{
      netlist, process, {.vdd = vdd, .temp_k = process.temp_k}};
  const timing::Sta sta{ctx};
  const std::size_t count = netlist.instance_count();

  DualVtResult result;
  result.use_high_vt.assign(count, false);

  const auto base = sta.run(1.0);  // period irrelevant for delays
  result.delay_before = base.critical_delay;
  result.clock_period = base.critical_delay * (1.0 + period_margin);
  result.leakage_before =
      total_leakage(netlist, process, vdd, result.use_high_vt);

  // Candidate order: most slack first (computed once against the target
  // period; the greedy loop re-times as it commits).
  const auto slacked = sta.run(result.clock_period);
  std::vector<InstanceId> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](InstanceId a, InstanceId b) {
    return slacked.instance_slack[a] > slacked.instance_slack[b];
  });

  // A move changes one gate's delay (loads do not depend on VT), so each
  // gate's delay at both flavours is computed once, by the expression
  // Sta::run uses, and every decision is one arrival pass over the
  // current-flavour delays. Flops keep delay 0: paths start and end there.
  std::vector<double> low_delay(count, 0.0);
  std::vector<double> high_delay(count, 0.0);
  for (const InstanceId i : netlist.topo_order()) {
    const auto& inst = netlist.instance(i);
    const double load = ctx.loads().net_load(inst.output);
    const double drive = circuit::cell_info(inst.kind).drive_mult;
    low_delay[i] = ctx.delay_for_load(load, drive, 0.0);
    high_delay[i] = ctx.delay_for_load(load, drive, process.high_vt_offset);
  }
  timing::require_finite_delays(netlist, high_delay);
  std::vector<double> delay = low_delay;
  std::vector<double> arrival;
  const auto endpoints = timing::endpoint_nets(netlist);
  int passes = 0;
  // Moves `gates` to high VT and keeps them there if the period holds.
  auto try_moves = [&](std::span<const InstanceId> gates) {
    for (const InstanceId i : gates) delay[i] = high_delay[i];
    ++passes;
    timing::propagate_arrivals(netlist, delay, arrival);
    const bool fits = timing::latest_arrival(endpoints, arrival).arrival <=
                      result.clock_period;
    for (const InstanceId i : gates) {
      if (fits)
        result.use_high_vt[i] = true;
      else
        delay[i] = low_delay[i];
    }
    return fits;
  };
  // A batch that misses the period is retried one gate at a time, so one
  // bad gate does not block the rest. Delay is monotone in the moves, so
  // a batch that fits would also have fit gate by gate: the assignment is
  // the one-at-a-time greedy's at any batch size.
  for (std::size_t at = 0; at < count; at += kBatch) {
    const std::span<const InstanceId> batch{order.data() + at,
                                            std::min(kBatch, count - at)};
    if (!try_moves(batch))
      for (const InstanceId& i : batch) try_moves({&i, 1});
  }
  result.high_vt_count = static_cast<std::size_t>(
      std::count(result.use_high_vt.begin(), result.use_high_vt.end(), true));

  std::vector<double> shifts(count, 0.0);
  for (InstanceId i = 0; i < count; ++i)
    if (result.use_high_vt[i]) shifts[i] = process.high_vt_offset;
  const auto final_timing = sta.run(result.clock_period, shifts);
  const int evaluations = passes + 3;  // + base, ordering and final STAs
  result.delay_after = final_timing.critical_delay;
  result.leakage_after =
      total_leakage(netlist, process, vdd, result.use_high_vt);
  const double slack = result.clock_period - result.delay_after;
  if (result.delay_after <= result.clock_period)
    result.status = Convergence::success(evaluations, slack);
  else
    result.status = Convergence::failure(
        evaluations, slack,
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
