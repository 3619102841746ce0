// MOSFET compact-model parameters.
//
// The model set is chosen to cover exactly what the paper's analyses need:
//  * sub-threshold conduction (paper Eq. 2, Fig. 2),
//  * strong-inversion drive via the Sakurai-Newton alpha-power law
//    (delay vs V_DD/V_T — Figs. 3-4),
//  * body effect / back-gate threshold modulation (Section 4, Fig. 6),
//  * voltage-dependent capacitances (Fig. 1).
#pragma once

#include "check/rule.hpp"

namespace lv::device {

enum class Polarity { nmos, pmos };

// All values are per-square (i.e. already normalized by W/L = 1) except
// where noted; the Mosfet class scales by the instance W/L.
struct MosfetParams {
  Polarity polarity = Polarity::nmos;

  // Zero-bias threshold voltage magnitude [V]. Positive for both
  // polarities; the Mosfet class applies the sign convention.
  double vt0 = 0.45;

  // Body-effect coefficient gamma [sqrt(V)] and surface potential 2*phi_F
  // [V]: VT(Vsb) = vt0 + gamma * (sqrt(2phi_F + Vsb) - sqrt(2phi_F)).
  double gamma = 0.30;
  double phi2f = 0.80;

  // DIBL coefficient [V/V]: VT reduction per volt of Vds.
  double dibl = 0.02;

  // Threshold temperature coefficient [V/K] (VT drops as T rises).
  double vt_tempco = 1.0e-3;

  // Sub-threshold ideality factor n (>= 1). Sub-threshold slope is
  // S = n * Vt * ln(10); n = 1.35 gives ~80 mV/dec at 300 K.
  double n_sub = 1.35;

  // Sub-threshold current at Vgs == VT for a W/L = 1 device [A].
  double i_at_vt = 4.0e-7;

  // Alpha-power-law parameters: Idsat = k_drive * (Vgs - VT)^alpha for a
  // W/L = 1 device [A / V^alpha]; alpha models velocity saturation
  // (alpha = 2 long channel, ~1.2-1.5 short channel).
  double alpha = 1.50;
  double k_drive = 3.0e-4;

  // Saturation-voltage coefficient: Vdsat = kv * (Vgs - VT)^(alpha/2) [V].
  double kv = 0.80;

  // Gate oxide capacitance per area [F/m^2] and drawn channel length [m];
  // gate area = w * l for the instance.
  double cox_area = 3.5e-3;
  double l_drawn = 0.6e-6;

  // Gate-capacitance voltage dependence (Fig. 1): the effective gate
  // capacitance rises from cg_floor_frac * Cox (channel in depletion,
  // series depletion cap) toward Cox as the node voltage passes VT. The
  // transition width is cg_sigma [V].
  double cg_floor_frac = 0.55;
  double cg_sigma = 0.25;

  // Source/drain junction capacitance: zero-bias cap per area [F/m^2],
  // built-in potential [V], grading exponent, and junction depth used to
  // estimate the drain area from W.
  double cj0_area = 0.9e-3;
  double phi_b = 0.80;
  double mj = 0.45;
  double drain_extent = 0.8e-6;  // [m] source/drain diffusion length

  // Gate-drain/source overlap capacitance per width [F/m].
  double c_overlap_w = 2.0e-10;

  // Throws the first finding of the rules below as a coded
  // check::InputError, its fields named after the polarity ("nmos.vt0").
  void validate() const;
};

inline const char* to_string(Polarity p) {
  return p == Polarity::nmos ? "nmos" : "pmos";
}

// The error rules of a parameter set, one row per numeric field in
// declaration order: every row must be finite, and each bound comes from
// the device literature (alpha in [1, 2], n_sub in [1, 3], a DIBL
// coefficient of at most 0.5 V/V). `lvtool check`, the techfile
// reader and writer, and every device constructor read this one table.
inline constexpr check::rule::Field<MosfetParams> kMosfetFields[] = {
    {"vt0", &MosfetParams::vt0, 1e-3, 2.0},
    {"gamma", &MosfetParams::gamma, 0.0},
    {"phi2f", &MosfetParams::phi2f, check::rule::kPositive},
    {"dibl", &MosfetParams::dibl, 0.0, 0.5},
    {"vt_tempco", &MosfetParams::vt_tempco},
    {"n_sub", &MosfetParams::n_sub, 1.0, 3.0},
    {"i_at_vt", &MosfetParams::i_at_vt, check::rule::kPositive},
    {"alpha", &MosfetParams::alpha, 1.0, 2.0},
    {"k_drive", &MosfetParams::k_drive, check::rule::kPositive},
    {"kv", &MosfetParams::kv, check::rule::kPositive},
    {"cox_area", &MosfetParams::cox_area, check::rule::kPositive},
    {"l_drawn", &MosfetParams::l_drawn, check::rule::kPositive},
    {"cg_floor_frac", &MosfetParams::cg_floor_frac, 1e-6, 1.0},
    {"cg_sigma", &MosfetParams::cg_sigma, check::rule::kPositive},
    {"cj0_area", &MosfetParams::cj0_area, 0.0},
    {"phi_b", &MosfetParams::phi_b, check::rule::kPositive},
    {"mj", &MosfetParams::mj, 1e-6, 1.0 - 1e-6},
    {"drain_extent", &MosfetParams::drain_extent, 0.0},
    {"c_overlap_w", &MosfetParams::c_overlap_w, 0.0},
};

inline void MosfetParams::validate() const {
  check::rule::require(*this, kMosfetFields, to_string(polarity));
}

}  // namespace lv::device
