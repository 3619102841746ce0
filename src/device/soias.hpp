// SOIAS: Silicon-On-Insulator with Active Substrate (paper Section 4,
// Figs. 5-6; Yang et al., IEDM 1995).
//
// In a fully-depleted SOI film the front- and back-surface potentials are
// coupled, so a voltage on the buried back gate shifts the front-gate
// threshold. For a back interface in depletion the small-signal coupling
// ratio is the capacitor divider
//
//    dVT_front / dVgb = - (Csi * Cbox) / ((Csi + Cbox) * Cof)
//
// with Csi = eps_si/t_si (film), Cbox = eps_ox/t_box (buried oxide), and
// Cof = eps_ox/t_fox (front gate oxide). With the geometry used here
// (t_si = 45 nm, t_box = 90 nm, t_fox = 9 nm) the ratio is ~0.086, so a
// 3 V back-gate swing moves VT by ~0.26 V — matching the paper's measured
// 0.448 V -> 0.184 V shift that buys ~4 decades of off-current reduction
// and ~80 % more on-current at V_DD = 1 V (Fig. 6).
#pragma once

#include "device/mosfet.hpp"

namespace lv::device {

struct SoiasGeometry {
  double t_si = 45e-9;    // silicon film thickness [m]
  double t_box = 90e-9;   // buried (back) oxide thickness [m]
  double t_fox = 9e-9;    // front gate oxide thickness [m]
};

// The error rules of a geometry: every thickness finite and > 0. Fields
// are named "soias.t_si" in messages. A process checks finiteness always
// and positivity only when it uses the back gate; SoiasDevice checks both.
inline constexpr check::rule::Field<SoiasGeometry> kSoiasFields[] = {
    {"t_si", &SoiasGeometry::t_si, check::rule::kPositive},
    {"t_box", &SoiasGeometry::t_box, check::rule::kPositive},
    {"t_fox", &SoiasGeometry::t_fox, check::rule::kPositive},
};

class SoiasDevice {
 public:
  // `base` is the front-gate device at back-gate bias 0 (high-VT state by
  // convention when vt_at_vgb0 is the standby threshold). `forward_vgb` is
  // the back-gate swing applied in the active state (paper: 3 V).
  SoiasDevice(Mosfet base, SoiasGeometry geometry);

  // Capacitive coupling ratio |dVT/dVgb| (dimensionless).
  double coupling_ratio() const;

  // Threshold shift produced by back-gate bias vgb [V]; positive vgb
  // (forward back bias) lowers VT.
  double vt_shift(double vgb) const;

  // Front device re-biased for back-gate voltage vgb.
  Mosfet at_back_bias(double vgb) const;

  // Active / standby convenience states.
  Mosfet active_device(double active_vgb) const { return at_back_bias(active_vgb); }
  Mosfet standby_device() const { return at_back_bias(0.0); }

  // Back-gate capacitance per device [F]: series Cbox-Csi under the body,
  // the load the V_T-control driver must switch (the C_bg of Eq. 4).
  double back_gate_cap() const;

  const Mosfet& base() const { return base_; }
  const SoiasGeometry& geometry() const { return geometry_; }

 private:
  Mosfet base_;
  SoiasGeometry geometry_;
};

}  // namespace lv::device
