// Technology (process) descriptions.
//
// A Process bundles the NMOS/PMOS compact-model parameters with supply
// range, wire capacitance, and the threshold-control mechanism the process
// offers. The four predefined processes mirror the technology options the
// paper discusses in Sections 3-4:
//   * bulk_cmos_06um  — conventional 0.6 um bulk CMOS, fixed high VT, 3 V.
//   * soi_low_vt      — fixed low-VT fully-depleted SOI (the "standard SOI"
//                       baseline of Eq. 3), 1 V.
//   * soias           — back-gated variable-VT SOI (Eq. 4, Figs. 5-6).
//   * dual_vt_mtcmos  — multiple-threshold process with high-VT sleep
//                       devices gating low-VT logic.
//   * bulk_body_bias  — triple-well bulk with substrate-bias standby.
#pragma once

#include <string>

#include "device/capacitance.hpp"
#include "device/mosfet.hpp"
#include "device/soias.hpp"

namespace lv::tech {

enum class VtControl {
  fixed,           // no standby mechanism
  soias_backgate,  // SOIAS dynamic threshold via buried back gate
  dual_vt,         // MTCMOS: high-VT sleep switch in series
  body_bias,       // substrate (well) bias modulation
};

const char* to_string(VtControl control);

struct Process {
  std::string name;

  device::MosfetParams nmos;
  device::MosfetParams pmos;

  double vdd_nominal = 1.0;  // [V]
  double vdd_min = 0.3;      // [V]
  double vdd_max = 3.3;      // [V]

  double wire_cap_per_m = 1.6e-10;  // [F/m] average routing capacitance
  double avg_wire_per_fanout = 8e-6;  // [m] routing length charged per fanout

  // Unit (1x) transistor widths used for minimum-size gates.
  double unit_nmos_width = 1.2e-6;  // [m]
  double unit_pmos_width = 2.4e-6;  // [m]

  VtControl vt_control = VtControl::fixed;

  // soias_backgate: geometry + back-gate swing applied when active.
  device::SoiasGeometry soias_geometry;
  double backgate_swing = 3.0;  // [V]

  // dual_vt: additional threshold of the high-VT flavor over vt0.
  double high_vt_offset = 0.25;  // [V]

  // body_bias: reverse source-body bias applied in standby [V].
  double standby_body_bias = 2.0;

  double temp_k = 300.0;

  // ---- Convenience factories for devices in this process ----
  // Width is in multiples of the unit width.
  device::Mosfet make_nmos(double w_mult = 1.0, double vt_shift = 0.0) const;
  device::Mosfet make_pmos(double w_mult = 1.0, double vt_shift = 0.0) const;
  device::CapacitanceModel nmos_caps(double w_mult = 1.0) const;
  device::CapacitanceModel pmos_caps(double w_mult = 1.0) const;
  // Effective capacitances of the unit (1x) inverter at supply `vdd`.
  device::InverterCaps unit_inverter_caps(double vdd) const;
  device::SoiasDevice make_soias_nmos(double w_mult = 1.0) const;

  // High-VT flavour (dual-VT processes).
  device::Mosfet make_high_vt_nmos(double w_mult = 1.0) const;
  device::Mosfet make_high_vt_pmos(double w_mult = 1.0) const;

  // Throws lv::util::Error when inconsistent.
  void validate() const;
};

// ---- Predefined processes (paper calibration points) ----------------------
// 0.6 um bulk CMOS at 3 V, VT ~ 0.7 V, S ~ 85 mV/dec.
Process bulk_cmos_06um();
// Fixed low-VT FD-SOI at 1 V: VT = 0.184 V, S ~ 66 mV/dec (Fig. 6 low-VT
// state). This is the "standard SOI" of the Eq. 3 energy model.
Process soi_low_vt();
// SOIAS: VT = 0.448 V at Vgb = 0 (standby), 3 V back-gate swing lowers it
// to ~0.19 V (active), reproducing the Fig. 6 shift.
Process soias();
// Dual-VT / MTCMOS: low VT 0.184 V logic, +0.264 V high-VT sleep devices.
Process dual_vt_mtcmos();
// Triple-well bulk with body-bias standby (Seta et al., ISSCC'95 style).
Process bulk_body_bias();

}  // namespace lv::tech
