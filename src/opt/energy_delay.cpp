#include "opt/energy_delay.hpp"

#include "analysis/analysis_context.hpp"
#include "exec/parallel.hpp"
#include "power/estimator.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace lv::opt {

namespace u = lv::util;

EnergyDelayResult explore_energy_delay(const circuit::Netlist& netlist,
                                       const tech::Process& process,
                                       double alpha, double vdd_lo,
                                       double vdd_hi, int points,
                                       double delay_cap) {
  u::require(vdd_lo > 0.0 && vdd_lo < vdd_hi,
             "explore_energy_delay: bad vdd range");
  u::require(points >= 2, "explore_energy_delay: need >= 2 points");

  // Prototype context: each worker gets a clone() so set_operating_point
  // and the memo caches stay thread-private; the netlist is shared.
  const analysis::AnalysisContext proto{
      netlist, process, {.vdd = vdd_lo, .temp_k = process.temp_k}};

  const auto vdds =
      u::linspace(vdd_lo, vdd_hi, static_cast<std::size_t>(points));
  EnergyDelayResult result;
  result.sweep = exec::parallel_map_stateful<EnergyDelayPoint>(
      vdds.size(), [&] { return proto.clone(); },
      [&](analysis::AnalysisContext& ctx, std::size_t i) {
        EnergyDelayPoint pt;
        pt.vdd = vdds[i];
        auto op = ctx.operating_point();
        op.vdd = vdds[i];
        ctx.set_operating_point(op);
        if (!ctx.delay_feasible()) return pt;
        // Sta/PowerEstimator only hold a pointer to ctx; constructing them
        // per point is cheap and keeps them bound to this worker's clone.
        const timing::Sta sta{ctx};
        const auto timed = sta.run(1.0);
        pt.delay = timed.critical_delay;
        if (pt.delay <= 0.0) return pt;
        op.f_clk = 1.0 / pt.delay;
        ctx.set_operating_point(op);
        const power::PowerEstimator est{ctx};
        pt.energy = est.estimate_uniform(alpha).energy_per_cycle(op.f_clk);
        pt.edp = pt.energy * pt.delay;
        pt.feasible = true;
        return pt;
      });

  double fastest = 0.0;
  for (const auto& pt : result.sweep) {
    if (!pt.feasible) continue;
    if (fastest == 0.0 || pt.delay < fastest) fastest = pt.delay;
    if (!result.min_edp.feasible || pt.edp < result.min_edp.edp)
      result.min_edp = pt;
    if (!result.min_ed2.feasible ||
        pt.energy * pt.delay * pt.delay <
            result.min_ed2.energy * result.min_ed2.delay *
                result.min_ed2.delay)
      result.min_ed2 = pt;
    if (delay_cap > 0.0 && pt.delay <= delay_cap &&
        (!result.min_energy_capped.feasible ||
         pt.energy < result.min_energy_capped.energy))
      result.min_energy_capped = pt;
  }
  if (!result.min_edp.feasible)
    result.status = Convergence::failure(
        points, 0.0,
        "no feasible supply in [" + std::to_string(vdd_lo) + ", " +
            std::to_string(vdd_hi) + "] V: devices do not conduct");
  else if (delay_cap > 0.0 && !result.min_energy_capped.feasible)
    result.status = Convergence::failure(
        points, fastest,
        "delay cap " + std::to_string(delay_cap) +
            " s unmet at every supply (fastest feasible: " +
            std::to_string(fastest) + " s)");
  else
    result.status = Convergence::success(points, fastest);
  return result;
}

}  // namespace lv::opt
