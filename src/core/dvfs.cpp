#include "core/dvfs.hpp"

#include "analysis/analysis_context.hpp"
#include "exec/parallel.hpp"
#include "power/estimator.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace lv::core {

namespace u = lv::util;

DvfsResult plan_dvfs(const circuit::Netlist& netlist,
                     const tech::Process& process,
                     const std::vector<WorkInterval>& intervals,
                     double alpha, double race_vdd) {
  u::require(!intervals.empty(), "plan_dvfs: need at least one interval");
  if (race_vdd <= 0.0) race_vdd = process.vdd_nominal;

  // One context serves every (vdd, f) point the planner probes — the
  // bisection below retargets it instead of rebuilding load extraction,
  // leakage tables, and STA per candidate supply.
  analysis::AnalysisContext ctx{
      netlist, process,
      {.vdd = race_vdd, .temp_k = process.temp_k}};
  const timing::Sta sta{ctx};
  const power::PowerEstimator est{ctx};

  auto retarget = [&](double vdd, double f) {
    auto op = ctx.operating_point();
    op.vdd = vdd;
    op.f_clk = f;
    ctx.set_operating_point(op);
  };
  auto delay_at = [&](double vdd) {
    retarget(vdd, ctx.operating_point().f_clk);
    if (!ctx.delay_feasible()) return 1e9;
    return sta.run(1.0).critical_delay;
  };
  auto energy_per_op = [&](double vdd, double f) {
    retarget(vdd, f);
    return est.estimate_uniform(alpha).energy_per_cycle(f);
  };
  auto idle_leak_power = [&](double vdd) {
    retarget(vdd, ctx.operating_point().f_clk);
    return est.leakage_current() * vdd;
  };

  // Race-to-idle reference, computed once on the shared context (this
  // also warms the netlist's lazy caches before the parallel section).
  const double race_delay = delay_at(race_vdd);
  const double race_rate = race_delay < 1e8 ? 1.0 / race_delay : 0.0;
  const double race_eop = energy_per_op(race_vdd, race_rate);
  const double race_idle_w = idle_leak_power(race_vdd);

  // Each interval's plan (a vdd bisection plus energy evaluations) is
  // independent of every other interval: the shared lambdas above always
  // retarget before reading, so carried-over operating points never leak
  // into values. Workers therefore run intervals concurrently on context
  // clones and the energy totals are folded serially in interval order —
  // bit-identical to the original single-threaded loop.
  struct IntervalEval {
    DvfsIntervalPlan plan;
    double race_energy = 0.0;
  };
  const auto evals = exec::parallel_map_stateful<IntervalEval>(
      intervals.size(), [&] { return ctx.clone(); },
      [&](analysis::AnalysisContext& wctx, std::size_t k) {
        const auto& interval = intervals[k];
        u::require(interval.seconds > 0.0 && interval.required_ops >= 0.0,
                   "plan_dvfs: bad interval");
        const timing::Sta wsta{wctx};
        const power::PowerEstimator west{wctx};
        auto wretarget = [&](double vdd, double f) {
          auto op = wctx.operating_point();
          op.vdd = vdd;
          op.f_clk = f;
          wctx.set_operating_point(op);
        };
        auto wdelay_at = [&](double vdd) {
          wretarget(vdd, wctx.operating_point().f_clk);
          if (!wctx.delay_feasible()) return 1e9;
          return wsta.run(1.0).critical_delay;
        };
        auto wenergy_per_op = [&](double vdd, double f) {
          wretarget(vdd, f);
          return west.estimate_uniform(alpha).energy_per_cycle(f);
        };
        auto widle_leak_power = [&](double vdd) {
          wretarget(vdd, wctx.operating_point().f_clk);
          return west.leakage_current() * vdd;
        };

        IntervalEval ev;
        const double needed_rate = interval.required_ops / interval.seconds;

        // --- baseline: race at race_vdd, then idle-leak the rest ---
        if (race_rate >= needed_rate && race_rate > 0.0) {
          const double busy_s = interval.required_ops / race_rate;
          ev.race_energy = interval.required_ops * race_eop +
                           (interval.seconds - busy_s) * race_idle_w;
        } else {
          ev.race_energy = 1e30;  // baseline cannot keep up
        }

        // --- DVFS: lowest supply whose rate covers the interval ---
        if (needed_rate <= 0.0) {
          // Pure idle interval: leak at the lowest feasible supply.
          ev.plan.vdd = 0.05;
          ev.plan.f_clk = 0.0;
          ev.plan.energy = widle_leak_power(ev.plan.vdd) * interval.seconds;
          ev.plan.feasible = true;
        } else if (const double rate_hi = 1.0 / wdelay_at(process.vdd_max);
                   rate_hi < needed_rate) {
          ev.plan.feasible = false;
        } else {
          const double lo = 0.05;
          double vdd = process.vdd_max;
          if (const double rate_lo = 1.0 / wdelay_at(lo);
              rate_lo >= needed_rate) {
            vdd = lo;
          } else {
            const auto solved = u::bisect(
                [&](double v) { return 1.0 / wdelay_at(v) - needed_rate; },
                lo, process.vdd_max, rate_lo - needed_rate,
                rate_hi - needed_rate, 1e-4);
            if (solved) vdd = solved->x;
          }
          ev.plan.vdd = vdd;
          ev.plan.f_clk = 1.0 / wdelay_at(vdd);
          ev.plan.energy =
              interval.required_ops * wenergy_per_op(vdd, ev.plan.f_clk);
          ev.plan.feasible = true;
        }
        return ev;
      });

  DvfsResult result;
  result.all_feasible = true;
  for (const auto& ev : evals) {
    result.race_to_idle_energy += ev.race_energy;
    if (!ev.plan.feasible) result.all_feasible = false;
    result.total_energy += ev.plan.feasible ? ev.plan.energy : 0.0;
    result.plan.push_back(ev.plan);
  }
  if (result.race_to_idle_energy > 0.0 &&
      result.race_to_idle_energy < 1e29) {
    result.savings_fraction =
        1.0 - result.total_energy / result.race_to_idle_energy;
  }
  return result;
}

}  // namespace lv::core
