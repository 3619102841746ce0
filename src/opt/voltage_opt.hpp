// Supply/threshold co-optimization for continuously-operating circuits
// (paper Section 3, Figs. 3-4).
//
// The experiment structure mirrors the paper's: a ring oscillator is held
// at a fixed performance point (stage delay / oscillation frequency) while
// V_T varies; V_DD is solved per V_T to keep the delay constant
// (iso-delay curve, Fig. 3); the per-cycle energy
//     E = act * C_sw(V_DD) * V_DD^2 + I_leak(V_DD, V_T) * V_DD * t_cycle
// then exhibits an interior minimum in V_T (Fig. 4): lowering V_T buys a
// quadratic switching saving through V_DD until exponential leakage takes
// over. Lower switching activity moves the optimum to higher V_T — the
// paper's closing observation of Section 3.
//
// Cost: a 26-point optimize_vt runs ~45 bisections at 1e-6 V, ~1 130
// stage-delay evaluations; each bisection reuses the two bracket-end
// evaluations that decided feasibility. The stage's FO1 load depends on
// V_DD only, and every bisection starts from the same [0.05 V, vdd_max]
// bracket, so each solve memoizes the load by exact V_DD (one memo per
// exec worker, owned by the call; 555 of 1 134 lookups hit at width 1,
// counted by the scheduling counters opt.fo1_memo.hits/misses). A miss
// integrates the unit inverter's capacitances in one pass
// (device::unit_inverter_caps).
// Results are bit-identical to recomputing the load at every evaluation;
// tests/reference_iso_delay.hpp keeps that computation as the oracle.
#pragma once

#include <optional>
#include <vector>

#include "opt/status.hpp"
#include "tech/process.hpp"
#include "timing/delay_model.hpp"

namespace lv::opt {

// Solves V_DD so the ring's stage delay equals `target_stage_delay` with
// all thresholds moved to `vt` (absolute NMOS V_T, not a shift). Returns
// nullopt when no supply in [0.05 V, process.vdd_max] achieves the delay.
std::optional<double> iso_delay_vdd(const tech::Process& process,
                                    const timing::RingOscillator& ring,
                                    double vt, double target_stage_delay);

// The Fig. 3 curve in one call: iso_delay_vdd at every threshold in
// `vts`, solved across the exec worker pool. Entry k corresponds to
// vts[k]; results are bit-identical to calling iso_delay_vdd serially.
std::vector<std::optional<double>> iso_delay_curve(
    const tech::Process& process, const timing::RingOscillator& ring,
    const std::vector<double>& vts, double target_stage_delay);

struct EnergyPoint {
  double vt = 0.0;                // absolute NMOS threshold [V]
  double vdd = 0.0;               // solved supply [V]
  double switching_energy = 0.0;  // per cycle [J]
  double leakage_energy = 0.0;    // per cycle [J]
  double total_energy = 0.0;      // per cycle [J]
  bool feasible = false;
};

// Energy per cycle of the ring at threshold `vt`, running at frequency
// `f_clk` (V_DD solved for iso-delay). `activity` scales the switching
// component: 1 = every node toggles each cycle (free-running ring);
// smaller values model quieter logic.
EnergyPoint ring_energy_at_vt(const tech::Process& process,
                              const timing::RingOscillator& ring, double vt,
                              double f_clk, double activity = 1.0);

struct VtSweepResult {
  std::vector<EnergyPoint> sweep;
  EnergyPoint optimum;
  // iterations = grid evaluations + golden-section refinement steps;
  // residual = width of the final refinement bracket [V]. Not converged
  // when no threshold in range meets the frequency (optimum.feasible is
  // then false) or the refinement hit its iteration cap.
  Convergence status;
};

// Sweeps vt over [vt_lo, vt_hi] (n points) at fixed throughput and locates
// the minimum-energy threshold — the Fig. 4 experiment.
VtSweepResult optimize_vt(const tech::Process& process,
                          const timing::RingOscillator& ring, double f_clk,
                          double activity, double vt_lo, double vt_hi,
                          int points = 41);

struct BodyBiasPlan {
  double standby_vsb = 0.0;      // reverse bias applied in standby [V]
  double vt_active = 0.0;        // [V]
  double vt_standby = 0.0;       // [V]
  double leakage_reduction = 1.0;  // active/standby off-current ratio
};

// Plans a standby substrate bias achieving `target_decades` of leakage
// reduction, scanning Vsb up to `max_vsb`. Demonstrates the paper's
// caveat: VT moves with sqrt(Vsb), so each extra decade costs rapidly more
// bias voltage. The plan reports the best achievable point when the
// target is out of reach.
BodyBiasPlan plan_body_bias(const tech::Process& process, double vdd,
                            double target_decades, double max_vsb = 4.0);

}  // namespace lv::opt
