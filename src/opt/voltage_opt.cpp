#include "opt/voltage_opt.hpp"

#include <cmath>
#include <unordered_map>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "util/numeric.hpp"

namespace lv::opt {

namespace u = lv::util;

namespace {

// Moves every threshold of the process so the NMOS V_T equals `vt`
// (PMOS tracks with the same shift), expressed as a shift for the device
// factories.
double shift_for_vt(const tech::Process& process, double vt) {
  return vt - process.nmos.vt0;
}

// FO1-memo traffic (lv::obs). Stability::scheduling: each exec worker
// owns a memo, so how often a supply repeats within one memo depends on
// how the thresholds split across workers; the values never do.
void note_fo1_memo(bool hit) {
  if (!lv::obs::enabled()) return;
  using lv::obs::Registry;
  using lv::obs::Stability;
  static auto& hits =
      Registry::global().counter("opt.fo1_memo.hits", Stability::scheduling);
  static auto& misses =
      Registry::global().counter("opt.fo1_memo.misses", Stability::scheduling);
  (hit ? hits : misses).add(1);
}

// The ring as one solve sees it, with the stage's FO1 load memoized by
// supply. The load depends on V_DD only, not on V_T, and every bisection
// starts from the same [0.05 V, vdd_max] bracket and so walks the same
// dyadic tree: in a 26-point optimize_vt about half of the 1 134
// supplies visited repeat. The memo is exact (keyed on the double V_DD,
// always finite and > 0 here), so a hit returns the bits a recomputation
// would. One solver per exec worker; it is never shared.
class IsoDelaySolver {
 public:
  IsoDelaySolver(const tech::Process& process,
                 const timing::RingOscillator& ring)
      : process_{process}, ring_{ring} {}

  std::optional<double> iso_delay_vdd(double vt, double target_stage_delay) {
    const double shift = shift_for_vt(process_, vt);
    auto mismatch = [&](double vdd) {
      return stage_delay(vdd, shift) - target_stage_delay;
    };
    const double lo = 0.05;
    const double hi = process_.vdd_max;
    // Delay decreases monotonically with vdd; a bracket requires the
    // target to be achievable at hi and exceeded at lo.
    const double at_hi = mismatch(hi);
    if (at_hi > 0.0) return std::nullopt;  // too slow even at max vdd
    const double at_lo = mismatch(lo);
    if (at_lo < 0.0) return lo;  // already fast at the floor
    const auto solved = u::bisect(mismatch, lo, hi, at_lo, at_hi, 1e-6);
    if (!solved || !solved->converged) return std::nullopt;
    return solved->x;
  }

  EnergyPoint energy_at_vt(double vt, double f_clk, double activity) {
    EnergyPoint pt;
    pt.vt = vt;
    const double t_cycle = 1.0 / f_clk;
    const double target_stage = t_cycle / (2.0 * ring_.stages);
    const auto vdd = iso_delay_vdd(vt, target_stage);
    if (!vdd) return pt;  // infeasible
    pt.vdd = *vdd;
    pt.feasible = true;
    const double shift = shift_for_vt(process_, vt);
    // Switched capacitance per period: every stage's FO1 load charges and
    // discharges once.
    pt.switching_energy =
        activity * (ring_.stages * fo1_load(pt.vdd)) * pt.vdd * pt.vdd;
    pt.leakage_energy =
        ring_.leakage_current(process_, pt.vdd, shift) * pt.vdd * t_cycle;
    pt.total_energy = pt.switching_energy + pt.leakage_energy;
    return pt;
  }

 private:
  double fo1_load(double vdd) {
    const auto it = fo1_.find(vdd);
    note_fo1_memo(it != fo1_.end());
    if (it != fo1_.end()) return it->second;
    const double load = process_.unit_inverter_caps(vdd).fo1_load();
    fo1_.emplace(vdd, load);
    return load;
  }

  // RingOscillator::stage_delay with the memoized load.
  double stage_delay(double vdd, double shift) {
    return timing::DelayModel{process_, vdd, shift, fo1_load(vdd)}
        .inverter_fo1_delay();
  }

  const tech::Process& process_;
  const timing::RingOscillator& ring_;
  std::unordered_map<double, double> fo1_;  // V_DD -> FO1 load [F]
};

}  // namespace

std::optional<double> iso_delay_vdd(const tech::Process& process,
                                    const timing::RingOscillator& ring,
                                    double vt, double target_stage_delay) {
  return IsoDelaySolver{process, ring}.iso_delay_vdd(vt, target_stage_delay);
}

std::vector<std::optional<double>> iso_delay_curve(
    const tech::Process& process, const timing::RingOscillator& ring,
    const std::vector<double>& vts, double target_stage_delay) {
  // Each point is an independent bisection over pure device-model
  // evaluations; a worker's solver shares its FO1 memo across the
  // thresholds it serves.
  return exec::parallel_map_stateful<std::optional<double>>(
      vts.size(), [&] { return IsoDelaySolver{process, ring}; },
      [&](IsoDelaySolver& solver, std::size_t k) {
        return solver.iso_delay_vdd(vts[k], target_stage_delay);
      });
}

EnergyPoint ring_energy_at_vt(const tech::Process& process,
                              const timing::RingOscillator& ring, double vt,
                              double f_clk, double activity) {
  return IsoDelaySolver{process, ring}.energy_at_vt(vt, f_clk, activity);
}

VtSweepResult optimize_vt(const tech::Process& process,
                          const timing::RingOscillator& ring, double f_clk,
                          double activity, double vt_lo, double vt_hi,
                          int points) {
  VtSweepResult result;
  const auto vts = u::linspace(vt_lo, vt_hi, static_cast<std::size_t>(points));
  // Fig. 4 grid: one independent iso-delay solve + energy evaluation per
  // threshold, fanned across the exec pool; slot k is point k, so the
  // sweep vector is bit-identical to the serial loop.
  result.sweep = exec::parallel_map_stateful<EnergyPoint>(
      vts.size(), [&] { return IsoDelaySolver{process, ring}; },
      [&](IsoDelaySolver& solver, std::size_t k) {
        return solver.energy_at_vt(vts[k], f_clk, activity);
      });

  // Refine around the best feasible grid point.
  const EnergyPoint* best = nullptr;
  for (const auto& pt : result.sweep)
    if (pt.feasible && (!best || pt.total_energy < best->total_energy))
      best = &pt;
  if (!best) {
    // Every grid point failed its iso-delay solve: the target frequency
    // is unreachable at any threshold in range (unbracketable optimum).
    result.status = Convergence::failure(
        points, 0.0,
        "no feasible (vt, vdd) point: target frequency unreachable at "
        "every threshold in [" + std::to_string(vt_lo) + ", " +
            std::to_string(vt_hi) + "] V");
    return result;
  }

  // The refinement runs on this thread; its solves share one memo.
  IsoDelaySolver solver{process, ring};
  auto energy_of = [&](double vt) {
    const auto pt = solver.energy_at_vt(vt, f_clk, activity);
    return pt.feasible ? pt.total_energy : 1e30;
  };
  const double span = (vt_hi - vt_lo) / (points - 1);
  const double bracket_lo = std::max(vt_lo, best->vt - span);
  const double bracket_hi = std::min(vt_hi, best->vt + span);
  const auto refined =
      u::golden_minimize(energy_of, bracket_lo, bracket_hi, 1e-5);
  result.optimum = solver.energy_at_vt(refined.x, f_clk, activity);
  if (!result.optimum.feasible || result.optimum.total_energy > best->total_energy)
    result.optimum = *best;
  // Final golden-section bracket width: each step shrinks it by 1/phi.
  const double bracket = (bracket_hi - bracket_lo) *
                         std::pow(0.6180339887498949, refined.iterations);
  if (refined.converged)
    result.status = Convergence::success(points + refined.iterations, bracket);
  else
    result.status = Convergence::failure(
        points + refined.iterations, bracket,
        "golden-section refinement exhausted its iteration budget");
  return result;
}

BodyBiasPlan plan_body_bias(const tech::Process& process, double vdd,
                            double target_decades, double max_vsb) {
  const auto n = process.make_nmos(1.0);
  BodyBiasPlan plan;
  plan.vt_active = n.threshold(0.0, vdd, process.temp_k);
  const double i_active = n.off_current(vdd, 0.0, process.temp_k);

  const double target_ratio = std::pow(10.0, target_decades);
  const auto xs = u::linspace(0.0, max_vsb, 401);
  for (const double vsb : xs) {
    const double i_standby = n.off_current(vdd, vsb, process.temp_k);
    const double ratio = i_active / i_standby;
    plan.standby_vsb = vsb;
    plan.vt_standby = n.threshold(vsb, vdd, process.temp_k);
    plan.leakage_reduction = ratio;
    if (ratio >= target_ratio) break;  // first bias meeting the target
  }
  return plan;
}

}  // namespace lv::opt
