#include "core/parallel_arch.hpp"

#include "analysis/analysis_context.hpp"
#include "exec/parallel.hpp"
#include "power/estimator.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace lv::core {

namespace u = lv::util;

ParallelismResult explore_parallelism(const circuit::Netlist& netlist,
                                      const tech::Process& process,
                                      double f_target, double alpha,
                                      int max_lanes, double mux_overhead) {
  u::require(f_target > 0.0, "explore_parallelism: rate must be > 0");
  u::require(max_lanes >= 1 && max_lanes <= 64,
             "explore_parallelism: lanes in [1, 64]");
  u::require(mux_overhead >= 0.0, "explore_parallelism: overhead >= 0");

  // Every lane count re-solves vdd by bisection over the same netlist.
  // The prototype context is cloned per worker: lane counts are mutually
  // independent, so the sweep fans out across the exec pool and the
  // best-point selection folds serially in lane order afterwards.
  const analysis::AnalysisContext proto{netlist, process,
                                        {.temp_k = process.temp_k}};

  ParallelismResult result;
  result.sweep = exec::parallel_map_stateful<ParallelismPoint>(
      static_cast<std::size_t>(max_lanes), [&] { return proto.clone(); },
      [&](analysis::AnalysisContext& ctx, std::size_t lane_index) {
        const int n = static_cast<int>(lane_index) + 1;
        const timing::Sta sta{ctx};
        const power::PowerEstimator est{ctx};
        auto retarget = [&](double vdd, double f) {
          auto op = ctx.operating_point();
          op.vdd = vdd;
          op.f_clk = f;
          ctx.set_operating_point(op);
        };

        ParallelismPoint pt;
        pt.lanes = n;
        pt.area_factor = n * (1.0 + mux_overhead * (n - 1));

        // Lane delay budget: n cycles of the target rate.
        const double budget = static_cast<double>(n) / f_target;
        auto delay_at = [&](double vdd) {
          retarget(vdd, ctx.operating_point().f_clk);
          if (!ctx.delay_feasible()) return 1e9;
          return sta.run(1.0).critical_delay;
        };
        // Solve vdd: critical_delay(vdd) == budget (delay decreasing in
        // vdd).
        const double lo = 0.05;
        const double hi = process.vdd_max;
        double vdd = 0.0;
        const double delay_hi = delay_at(hi);
        if (delay_hi > budget) {
          return pt;  // cannot meet rate even at max supply
        }
        const double delay_lo = delay_at(lo);
        if (delay_lo <= budget) {
          vdd = lo;
        } else {
          const auto solved = u::bisect(
              [&](double v) { return delay_at(v) - budget; }, lo, hi,
              delay_lo - budget, delay_hi - budget, 1e-4);
          if (!solved) return pt;
          vdd = solved->x;
        }
        pt.vdd = vdd;

        // Lane energy per operation at the relaxed rate; overhead scales
        // the switching component; all N lanes leak for the whole
        // operation.
        retarget(vdd, f_target / n);  // one op per budget per lane
        const auto lane = est.estimate_uniform(alpha);
        const auto& op = ctx.operating_point();
        const double overhead_mult = 1.0 + mux_overhead * (n - 1);
        const double switching_op =
            (lane.switching + lane.short_circuit + lane.clock) / op.f_clk *
            overhead_mult;
        // n lanes leak during each operation interval (1 / f_target per
        // op per lane, n lanes).
        const double leakage_op = lane.leakage * n / f_target;
        pt.energy_per_op = switching_op + leakage_op;
        pt.switching_share = switching_op / pt.energy_per_op;
        pt.feasible = true;
        return pt;
      });

  for (const auto& pt : result.sweep)
    if (pt.feasible && (!result.best.feasible ||
                        pt.energy_per_op < result.best.energy_per_op))
      result.best = pt;
  return result;
}

}  // namespace lv::core
