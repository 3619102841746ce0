// Voltage-dependent capacitance models (paper Section 2, Fig. 1).
//
// The paper's Fig. 1 shows that the *switched* capacitance of a register
// rises with V_DD because the MOS gate capacitance is non-linear: while the
// channel is in depletion the oxide cap appears in series with the
// depletion cap (low C); once the surface inverts, C approaches Cox.
// Fig. 1's takeaway — "capacitive non-linearities must be modelled for
// accurate power estimation" — is realized here as C(V) curves plus the
// energy integral E = integral of C(v) * v dv over the swing.
//
// Each C(V) curve factors into a bias-dependent *shape* (the logistic of
// the gate cap, the junction's (1 + v/phi_b)^mj) and a device prefactor
// (Cox*W*L, Cj0*A). unit_inverter_caps() integrates an NMOS/PMOS pair in
// one pass and evaluates each shape once when the two devices share its
// parameters, yet every component it returns is bit-equal to the
// per-device integral below: both go through the same primitives and
// the same trapezoid sum.
#pragma once

#include "device/params.hpp"

namespace lv::device {

class CapacitanceModel {
 public:
  // Builds the model for a device of width `w` [m] described by `params`.
  CapacitanceModel(MosfetParams params, double w);

  // Oxide (maximum) gate capacitance [F]: Cox * W * L.
  double gate_cap_max() const;

  // Instantaneous gate capacitance [F] at gate voltage `v` (relative to
  // source/body). Logistic transition from the depletion floor to Cox
  // centred on the threshold voltage:
  // gate_cap(v) = gate_cap_from_shape(gate_shape(v)).
  double gate_cap(double v) const;

  // The logistic in [0, 1] at gate voltage `v` (depends on vt0 and
  // cg_sigma only), and the capacitance [F] it maps to for this device.
  double gate_shape(double v) const;
  double gate_cap_from_shape(double shape) const;
  // True when `other` has the same gate_shape() at every voltage.
  bool same_gate_shape(const CapacitanceModel& other) const;

  // Average (effective) gate capacitance [F] over a 0 -> vdd swing:
  // Ceff = (1/vdd) * integral_0^vdd C(v) dv. This is the quantity whose
  // V_DD dependence Fig. 1 plots.
  double gate_cap_effective(double vdd) const;

  // Energy drawn from the supply to charge the gate through a full swing
  // [J]: integral_0^vdd C(v) * v dv * (vdd/..) — reported as the exact
  // integral; for a linear cap this reduces to (1/2) C vdd^2.
  double gate_charge_energy(double vdd) const;

  // Drain/source junction capacitance [F] at reverse bias `vr` >= 0:
  // Cj0 * A / (1 + vr/phi_b)^mj with A = W * drain_extent.
  double junction_cap(double vr) const;

  // The junction's bias divisor (1 + max(0, vr)/phi_b)^mj (depends on
  // phi_b and mj only), and the capacitance [F] it maps to:
  // junction_cap(vr) = junction_cap_from_shape(junction_shape(vr)).
  double junction_shape(double vr) const;
  double junction_cap_from_shape(double shape) const;
  // True when `other` has the same junction_shape() at every bias.
  bool same_junction_shape(const CapacitanceModel& other) const;

  // Average junction capacitance over a 0 -> vdd reverse-bias swing [F].
  double junction_cap_effective(double vdd) const;

  // Gate-drain + gate-source overlap capacitance [F] (bias independent).
  double overlap_cap() const;

  // Total effective load one such device presents as a *fanout gate* at
  // supply vdd [F]: effective gate cap + overlap.
  double input_cap_effective(double vdd) const;

  // Total effective parasitic a device contributes to the net it *drives*
  // at supply vdd [F]: junction + overlap.
  double drive_parasitic_effective(double vdd) const;

 private:
  MosfetParams params_;
  double w_;
};

// Trapezoid panels of the effective-capacitance integrals over [0, vdd].
inline constexpr int kGateCapPanels = 128;
inline constexpr int kJunctionCapPanels = 64;

// Effective capacitances of a unit inverter at supply vdd [F]: each field
// is bit-equal to the named CapacitanceModel integral of its device.
struct InverterCaps {
  double n_input = 0.0;      // nmos.input_cap_effective(vdd)
  double p_input = 0.0;      // pmos.input_cap_effective(vdd)
  double n_parasitic = 0.0;  // nmos.drive_parasitic_effective(vdd)
  double p_parasitic = 0.0;  // pmos.drive_parasitic_effective(vdd)

  // Fanout-of-1 load: the inverter's own drain parasitics plus one
  // identical receiver, summed in the order the delay model always has.
  double fo1_load() const {
    return n_input + p_input + n_parasitic + p_parasitic;
  }
};

// One pass over the swing for both devices: each sample's logistic and
// junction power is computed once and reused for the PMOS when the shape
// parameters agree (true of every builtin process).
InverterCaps unit_inverter_caps(const CapacitanceModel& nmos,
                                const CapacitanceModel& pmos, double vdd);

}  // namespace lv::device
