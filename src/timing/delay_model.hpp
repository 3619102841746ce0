// Gate-delay model from the alpha-power law (Sakurai-Newton):
//
//     t_d = k * C_L * V_DD / I_dsat(V_DD, V_T)
//         ~ C_L * V_DD / (2 * k_drive * (V_DD - V_T)^alpha)
//
// This is the delay expression behind the paper's Figs. 3-4: lowering V_T
// lets V_DD drop at constant delay; the iso-delay contour V_DD(V_T) and
// the fixed-throughput energy optimum both come from inverting it.
//
// The FO1 load is process.unit_inverter_caps(vdd).fo1_load(): one pass
// over the supply swing for both devices of the unit inverter.
//
// The expressions themselves are the inline free functions below. Both
// DelayModel and analysis::AnalysisContext (which memoizes the drive
// parameters per (vdd, vt_shift) for context-backed STA) call them, so
// the two agree bit for bit by construction. They are inline because
// lv_analysis sits below lv_timing and links no timing code.
#pragma once

#include "tech/process.hpp"

namespace lv::timing {

// Gate overdrive below which an operating point is infeasible: the
// alpha-power model is meaningless when the device is sub-threshold for
// the whole transition.
inline constexpr double kMinOverdrive = 0.02;  // [V]

// Average N/P on-current of a unit inverter at full gate drive [A].
inline double unit_inverter_drive(const tech::Process& process, double vdd,
                                  double vt_shift) {
  const auto n = process.make_nmos(1.0, vt_shift);
  const auto p = process.make_pmos(1.0, vt_shift);
  return 0.5 * (n.on_current(vdd, 0.0, process.temp_k) +
                p.on_current(vdd, 0.0, process.temp_k));
}

// t = c_load * vdd / (2 * drive_mult * unit_drive) [s]; 1 s (effectively
// infinite) when the unit drive does not conduct.
inline double alpha_power_delay(double c_load, double vdd, double drive_mult,
                                double unit_drive) {
  if (unit_drive <= 0.0) return 1.0;
  return c_load * vdd / (2.0 * drive_mult * unit_drive);
}

// True when the NMOS overdrive at (vdd, vt_shift) exceeds kMinOverdrive.
inline bool alpha_power_feasible(const tech::Process& process, double vdd,
                                 double vt_shift) {
  const auto n = process.make_nmos(1.0, vt_shift);
  return vdd - n.threshold(0.0, vdd, process.temp_k) > kMinOverdrive;
}

class DelayModel {
 public:
  // `vt_shift` is added to both polarities' thresholds (back-gate bias,
  // body bias, or a dual-VT flavor choice).
  DelayModel(const tech::Process& process, double vdd, double vt_shift = 0.0);
  // As above, with the FO1 load at `vdd` supplied by the caller (it is
  // process.unit_inverter_caps(vdd).fo1_load() and does not depend on
  // vt_shift, so a solver that revisits supplies can memoize it).
  DelayModel(const tech::Process& process, double vdd, double vt_shift,
             double fo1_load);

  double vdd() const { return vdd_; }
  double vt_shift() const { return vt_shift_; }

  // Average N/P drive current of a unit inverter at full gate drive [A].
  double unit_drive_current() const;

  // Delay of a driver with strength `drive_mult` into load `c_load` [s]:
  // t = c_load * vdd / (2 * drive_mult * unit_drive_current()).
  double delay_for_load(double c_load, double drive_mult = 1.0) const;

  // Fanout-of-1 inverter stage delay [s] — the ring-oscillator stage used
  // by the Figs. 3-4 experiments.
  double inverter_fo1_delay() const;

  // True when the device barely conducts at this (vdd, vt) point (the
  // delay model diverges; callers should treat the point as infeasible).
  bool feasible() const;

  const tech::Process& process() const { return process_; }

 private:
  // Stored by value: Process is a small parameter bundle and callers often
  // pass factory temporaries (tech::soi_low_vt()).
  tech::Process process_;
  double vdd_;
  double vt_shift_;
  double unit_drive_;  // cached average on-current [A]
  double fo1_cap_;     // FO1 load [F]
};

// N-stage ring oscillator (odd N): period = 2 * N * stage delay;
// frequency = 1 / period. The paper extracts its iso-delay V_DD vs V_T
// curves (Fig. 3) and energy-vs-V_T curves (Fig. 4) from exactly this
// structure.
struct RingOscillator {
  int stages = 101;

  double stage_delay(const tech::Process& process, double vdd,
                     double vt_shift) const;
  double period(const tech::Process& process, double vdd,
                double vt_shift) const;
  double frequency(const tech::Process& process, double vdd,
                   double vt_shift) const;
  // Total leakage current of the ring [A] (all stages, state-averaged).
  double leakage_current(const tech::Process& process, double vdd,
                         double vt_shift) const;
};

}  // namespace lv::timing
