#include "tech/process.hpp"

#include "util/error.hpp"

namespace lv::tech {

namespace dev = lv::device;

const char* to_string(VtControl control) {
  switch (control) {
    case VtControl::fixed: return "fixed";
    case VtControl::soias_backgate: return "soias_backgate";
    case VtControl::dual_vt: return "dual_vt";
    case VtControl::body_bias: return "body_bias";
  }
  return "?";
}

dev::Mosfet Process::make_nmos(double w_mult, double vt_shift) const {
  return dev::Mosfet{nmos, unit_nmos_width * w_mult, vt_shift};
}

dev::Mosfet Process::make_pmos(double w_mult, double vt_shift) const {
  return dev::Mosfet{pmos, unit_pmos_width * w_mult, vt_shift};
}

dev::CapacitanceModel Process::nmos_caps(double w_mult) const {
  return dev::CapacitanceModel{nmos, unit_nmos_width * w_mult};
}

dev::CapacitanceModel Process::pmos_caps(double w_mult) const {
  return dev::CapacitanceModel{pmos, unit_pmos_width * w_mult};
}

dev::InverterCaps Process::unit_inverter_caps(double vdd) const {
  return dev::unit_inverter_caps(nmos_caps(1.0), pmos_caps(1.0), vdd);
}

dev::SoiasDevice Process::make_soias_nmos(double w_mult) const {
  lv::util::require(vt_control == VtControl::soias_backgate,
                    "Process: make_soias_nmos on a non-SOIAS process");
  return dev::SoiasDevice{make_nmos(w_mult), soias_geometry};
}

dev::Mosfet Process::make_high_vt_nmos(double w_mult) const {
  return dev::Mosfet{nmos, unit_nmos_width * w_mult, high_vt_offset};
}

dev::Mosfet Process::make_high_vt_pmos(double w_mult) const {
  return dev::Mosfet{pmos, unit_pmos_width * w_mult, high_vt_offset};
}

void Process::validate() const { visit_rules(check::rule::throw_first); }

namespace {

// Shared baseline for the 1 V-class SOI processes (FD-SOI, steep slope).
dev::MosfetParams soi_nmos_base() {
  dev::MosfetParams p;
  p.polarity = dev::Polarity::nmos;
  p.vt0 = 0.184;
  p.gamma = 0.15;   // weak body effect (floating thin film)
  p.phi2f = 0.80;
  p.dibl = 0.03;
  p.n_sub = 1.10;   // S ~ 66 mV/dec at 300 K
  p.i_at_vt = 4.0e-7;
  p.alpha = 1.50;
  p.k_drive = 3.2e-4;
  p.kv = 0.80;
  p.cox_area = 3.8e-3;   // t_fox = 9 nm
  p.l_drawn = 0.44e-6;   // Leff of Fig. 6
  p.cj0_area = 0.25e-3;  // SOI junctions are small
  p.c_overlap_w = 1.6e-10;
  p.drain_extent = 0.6e-6;
  return p;
}

dev::MosfetParams soi_pmos_base() {
  dev::MosfetParams p = soi_nmos_base();
  p.polarity = dev::Polarity::pmos;
  p.k_drive = 1.5e-4;  // hole mobility deficit
  p.i_at_vt = 2.0e-7;
  return p;
}

}  // namespace

Process bulk_cmos_06um() {
  Process t;
  t.name = "bulk_cmos_06um";
  t.nmos.polarity = dev::Polarity::nmos;
  t.nmos.vt0 = 0.70;
  t.nmos.gamma = 0.45;
  t.nmos.phi2f = 0.85;
  t.nmos.dibl = 0.02;
  t.nmos.n_sub = 1.45;  // S ~ 86 mV/dec
  t.nmos.i_at_vt = 3.0e-7;
  t.nmos.alpha = 1.55;
  t.nmos.k_drive = 2.4e-4;
  t.nmos.cox_area = 2.5e-3;  // t_ox ~ 13.5 nm
  t.nmos.l_drawn = 0.6e-6;
  t.nmos.cj0_area = 0.9e-3;
  t.pmos = t.nmos;
  t.pmos.polarity = dev::Polarity::pmos;
  t.pmos.k_drive = 1.1e-4;
  t.pmos.i_at_vt = 1.5e-7;
  t.vdd_nominal = 3.0;
  t.vdd_min = 1.0;
  t.vdd_max = 3.6;
  t.vt_control = VtControl::fixed;
  t.validate();
  return t;
}

Process soi_low_vt() {
  Process t;
  t.name = "soi_low_vt";
  t.nmos = soi_nmos_base();
  t.pmos = soi_pmos_base();
  t.vdd_nominal = 1.0;
  t.vdd_min = 0.3;
  t.vdd_max = 1.8;
  t.unit_nmos_width = 1.0e-6;
  t.unit_pmos_width = 2.0e-6;
  t.vt_control = VtControl::fixed;
  t.validate();
  return t;
}

Process soias() {
  Process t = soi_low_vt();
  t.name = "soias";
  // Standby (Vgb = 0) threshold is the *high* state of Fig. 6; the
  // back-gate swing brings it down to the low-VT state.
  t.nmos.vt0 = 0.448;
  t.pmos.vt0 = 0.448;
  t.vt_control = VtControl::soias_backgate;
  t.soias_geometry = device::SoiasGeometry{45e-9, 90e-9, 9e-9};
  t.backgate_swing = 3.0;
  t.validate();
  return t;
}

Process dual_vt_mtcmos() {
  Process t = soi_low_vt();
  t.name = "dual_vt_mtcmos";
  t.vt_control = VtControl::dual_vt;
  t.high_vt_offset = 0.264;  // low 0.184 V / high 0.448 V flavors
  t.validate();
  return t;
}

Process bulk_body_bias() {
  Process t;
  t.name = "bulk_body_bias";
  t.nmos = soi_nmos_base();
  t.pmos = soi_pmos_base();
  // Bulk devices: strong body effect is what makes substrate control work,
  // but (as the paper notes) VT moves only with sqrt(Vsb), so large bias
  // voltages are needed.
  t.nmos.gamma = 0.50;
  t.pmos.gamma = 0.50;
  t.nmos.n_sub = 1.40;
  t.pmos.n_sub = 1.40;
  t.nmos.cj0_area = 0.9e-3;
  t.pmos.cj0_area = 0.9e-3;
  t.name = "bulk_body_bias";
  t.vdd_nominal = 1.0;
  t.vdd_min = 0.3;
  t.vdd_max = 2.5;
  t.vt_control = VtControl::body_bias;
  t.standby_body_bias = 2.0;
  t.validate();
  return t;
}

}  // namespace lv::tech
