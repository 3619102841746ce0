#include "core/comparison.hpp"

#include <cmath>

#include "exec/parallel.hpp"
#include "util/numeric.hpp"

namespace lv::core {

std::vector<std::optional<double>> RatioGrid::breakeven_bga() const {
  std::vector<std::optional<double>> out(fga_axis.size());
  for (std::size_t f = 0; f < fga_axis.size(); ++f) {
    out[f] = std::nullopt;
    for (std::size_t b = 0; b + 1 < bga_axis.size(); ++b) {
      const double r0 = log_ratio[b][f];
      const double r1 = log_ratio[b + 1][f];
      if ((r0 <= 0.0) == (r1 <= 0.0)) continue;
      // Interpolate the crossing in log10(bga).
      const double t = -r0 / (r1 - r0);
      const double lb0 = std::log10(bga_axis[b]);
      const double lb1 = std::log10(bga_axis[b + 1]);
      out[f] = std::pow(10.0, lb0 + t * (lb1 - lb0));
      break;
    }
  }
  return out;
}

RatioGrid energy_ratio_grid(const ModuleParams& module, double alpha,
                            const BurstOperatingPoint& op, double fga_lo,
                            double fga_hi, double bga_lo, double bga_hi,
                            std::size_t points) {
  RatioGrid grid;
  grid.fga_axis = lv::util::logspace(fga_lo, fga_hi, points);
  grid.bga_axis = lv::util::logspace(bga_lo, bga_hi, points);
  grid.log_ratio.assign(points, std::vector<double>(points, 0.0));
  // Fig. 10 grid: every cell is an independent closed-form evaluation, so
  // fan out over the flattened (bga, fga) index space (fga fast, matching
  // the old inner loop) and unpack into the row-major result.
  const auto cells =
      exec::parallel_map<double>(points * points, [&](std::size_t i) {
        ActivityVars vars;
        vars.fga = grid.fga_axis[i % points];
        vars.bga = grid.bga_axis[i / points];
        vars.alpha = alpha;
        return log_energy_ratio(module, vars, op);
      });
  for (std::size_t b = 0; b < points; ++b)
    for (std::size_t f = 0; f < points; ++f)
      grid.log_ratio[b][f] = cells[b * points + f];
  return grid;
}

ApplicationPoint evaluate_application(const std::string& label,
                                      const ModuleParams& module,
                                      const ActivityVars& activity,
                                      const BurstOperatingPoint& op) {
  ApplicationPoint pt;
  pt.label = label;
  pt.activity = activity;
  pt.e_soi = energy_soi(module, activity, op);
  pt.e_soias = energy_soias(module, activity, op);
  pt.log_ratio = std::log10(pt.e_soias / pt.e_soi);
  pt.savings_percent = 100.0 * (1.0 - pt.e_soias / pt.e_soi);
  return pt;
}

}  // namespace lv::core
