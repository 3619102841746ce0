// Retained copy of the iso-delay solver as it ran before the FO1 memo and
// the one-pass inverter capacitances: every stage-delay evaluation
// rebuilds the unit inverter's four effective capacitances from
// util::integrate_trapezoid over the C(V) formulas written out below from
// the MOSFET parameters, and every threshold is solved serially. It
// exists solely as the oracle for tests/opt_voltage_test.cpp:
// optimize_vt, iso_delay_curve and ring_energy_at_vt must reproduce it
// bit for bit. Kept deliberately close to the original source — do not
// "optimize" it; its independence from the production code is its value.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "opt/voltage_opt.hpp"
#include "tech/process.hpp"
#include "timing/delay_model.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace lv::opt::testing {

// CapacitanceModel::gate_cap for a device of width w.
inline double ref_gate_cap(const device::MosfetParams& m, double w,
                           double v) {
  const double cmax = m.cox_area * w * m.l_drawn;
  const double x = (v - m.vt0) / m.cg_sigma;
  const double s = 1.0 / (1.0 + std::exp(-x));
  return cmax * (m.cg_floor_frac + (1.0 - m.cg_floor_frac) * s);
}

// CapacitanceModel::junction_cap for a device of width w.
inline double ref_junction_cap(const device::MosfetParams& m, double w,
                               double vr) {
  const double area = w * m.drain_extent;
  const double c0 = m.cj0_area * area;
  return c0 / std::pow(1.0 + std::max(0.0, vr) / m.phi_b, m.mj);
}

inline double ref_overlap_cap(const device::MosfetParams& m, double w) {
  return 2.0 * m.c_overlap_w * w;
}

// input_cap_effective: mean gate cap over the swing (128 panels) plus
// overlap.
inline double ref_input_cap(const device::MosfetParams& m, double w,
                            double vdd) {
  double gate = 0.0;
  if (vdd <= 0.0) {
    gate = ref_gate_cap(m, w, 0.0);
  } else {
    const double q = util::integrate_trapezoid(
        [&](double v) { return ref_gate_cap(m, w, v); }, 0.0, vdd, 128);
    gate = q / vdd;
  }
  return gate + ref_overlap_cap(m, w);
}

// drive_parasitic_effective: mean junction cap over the swing (64
// panels) plus overlap.
inline double ref_parasitic_cap(const device::MosfetParams& m, double w,
                                double vdd) {
  double junction = 0.0;
  if (vdd <= 0.0) {
    junction = ref_junction_cap(m, w, 0.0);
  } else {
    const double q = util::integrate_trapezoid(
        [&](double v) { return ref_junction_cap(m, w, v); }, 0.0, vdd, 64);
    junction = q / vdd;
  }
  return junction + ref_overlap_cap(m, w);
}

inline double ref_fo1_load(const tech::Process& p, double vdd) {
  const double wn = p.unit_nmos_width * 1.0;
  const double wp = p.unit_pmos_width * 1.0;
  return ref_input_cap(p.nmos, wn, vdd) + ref_input_cap(p.pmos, wp, vdd) +
         ref_parasitic_cap(p.nmos, wn, vdd) +
         ref_parasitic_cap(p.pmos, wp, vdd);
}

// DelayModel{p, vdd, shift}.inverter_fo1_delay().
inline double ref_stage_delay(const tech::Process& p, double vdd,
                              double shift) {
  util::require(vdd > 0.0, "ref_stage_delay: vdd must be > 0");
  const auto n = p.make_nmos(1.0, shift);
  const auto pm = p.make_pmos(1.0, shift);
  const double unit_drive = 0.5 * (n.on_current(vdd, 0.0, p.temp_k) +
                                   pm.on_current(vdd, 0.0, p.temp_k));
  const double fo1 = ref_fo1_load(p, vdd);
  if (unit_drive <= 0.0) return 1.0;
  return fo1 * vdd / (2.0 * 1.0 * unit_drive);
}

inline std::optional<double> ref_iso_delay_vdd(const tech::Process& p,
                                               double vt, double target) {
  const double shift = vt - p.nmos.vt0;
  auto mismatch = [&](double vdd) {
    return ref_stage_delay(p, vdd, shift) - target;
  };
  const double lo = 0.05;
  const double hi = p.vdd_max;
  if (mismatch(hi) > 0.0) return std::nullopt;
  if (mismatch(lo) < 0.0) return lo;
  const auto solved = util::bisect(mismatch, lo, hi, 1e-6);
  if (!solved || !solved->converged) return std::nullopt;
  return solved->x;
}

inline EnergyPoint ref_ring_energy_at_vt(const tech::Process& p,
                                         const timing::RingOscillator& ring,
                                         double vt, double f_clk,
                                         double activity) {
  EnergyPoint pt;
  pt.vt = vt;
  const double t_cycle = 1.0 / f_clk;
  const double target_stage = t_cycle / (2.0 * ring.stages);
  const auto vdd = ref_iso_delay_vdd(p, vt, target_stage);
  if (!vdd) return pt;
  pt.vdd = *vdd;
  pt.feasible = true;
  const double shift = vt - p.nmos.vt0;
  const double switched_cap = ring.stages * ref_fo1_load(p, pt.vdd);
  pt.switching_energy = activity * switched_cap * pt.vdd * pt.vdd;
  const auto n = p.make_nmos(1.0, shift);
  const auto pm = p.make_pmos(1.0, shift);
  const double leak = 0.5 * ring.stages *
                      (n.off_current(pt.vdd, 0.0, p.temp_k) +
                       pm.off_current(pt.vdd, 0.0, p.temp_k));
  pt.leakage_energy = leak * pt.vdd * t_cycle;
  pt.total_energy = pt.switching_energy + pt.leakage_energy;
  return pt;
}

inline VtSweepResult ref_optimize_vt(const tech::Process& p,
                                     const timing::RingOscillator& ring,
                                     double f_clk, double activity,
                                     double vt_lo, double vt_hi,
                                     int points) {
  VtSweepResult result;
  for (const double vt :
       util::linspace(vt_lo, vt_hi, static_cast<std::size_t>(points)))
    result.sweep.push_back(ref_ring_energy_at_vt(p, ring, vt, f_clk, activity));

  const EnergyPoint* best = nullptr;
  for (const auto& pt : result.sweep)
    if (pt.feasible && (!best || pt.total_energy < best->total_energy))
      best = &pt;
  if (!best) {
    result.status = Convergence::failure(
        points, 0.0,
        "no feasible (vt, vdd) point: target frequency unreachable at "
        "every threshold in [" + std::to_string(vt_lo) + ", " +
            std::to_string(vt_hi) + "] V");
    return result;
  }

  auto energy_of = [&](double vt) {
    const auto pt = ref_ring_energy_at_vt(p, ring, vt, f_clk, activity);
    return pt.feasible ? pt.total_energy : 1e30;
  };
  const double span = (vt_hi - vt_lo) / (points - 1);
  const double bracket_lo = std::max(vt_lo, best->vt - span);
  const double bracket_hi = std::min(vt_hi, best->vt + span);
  const auto refined =
      util::golden_minimize(energy_of, bracket_lo, bracket_hi, 1e-5);
  result.optimum = ref_ring_energy_at_vt(p, ring, refined.x, f_clk, activity);
  if (!result.optimum.feasible ||
      result.optimum.total_energy > best->total_energy)
    result.optimum = *best;
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

}  // namespace lv::opt::testing
