#include <cmath>
#include <string>
#include <vector>

#include "check/codes.hpp"
#include "check/validate.hpp"

namespace lv::check {

namespace {

namespace dev = lv::device;

struct Field {
  const char* name;
  double value;
};

// Every numeric field of a MosfetParams, for the finiteness sweep. Kept
// in sync with device/params.hpp (a new field that skips this list slips
// past the NaN check, so the list is exhaustive on purpose).
std::vector<Field> mosfet_fields(const dev::MosfetParams& p) {
  return {
      {"vt0", p.vt0},
      {"gamma", p.gamma},
      {"phi2f", p.phi2f},
      {"dibl", p.dibl},
      {"vt_tempco", p.vt_tempco},
      {"n_sub", p.n_sub},
      {"i_at_vt", p.i_at_vt},
      {"alpha", p.alpha},
      {"k_drive", p.k_drive},
      {"kv", p.kv},
      {"cox_area", p.cox_area},
      {"l_drawn", p.l_drawn},
      {"cg_floor_frac", p.cg_floor_frac},
      {"cg_sigma", p.cg_sigma},
      {"cj0_area", p.cj0_area},
      {"phi_b", p.phi_b},
      {"mj", p.mj},
      {"drain_extent", p.drain_extent},
      {"c_overlap_w", p.c_overlap_w},
  };
}

class TechChecker {
 public:
  TechChecker(const tech::Process& process, DiagSink& sink)
      : t_(process), sink_(sink) {}

  void run() {
    if (t_.name.empty())
      sink_.error(codes::tech_range, "process name must not be empty");
    check_mosfet("nmos", t_.nmos, dev::Polarity::nmos);
    check_mosfet("pmos", t_.pmos, dev::Polarity::pmos);
    check_process_scalars();
    check_vt_control();
  }

 private:
  void nonfinite(const std::string& field, double v) {
    sink_.error(codes::tech_nonfinite,
                field + " is not finite (" + std::to_string(v) + ")");
  }
  // v must be > 0 (or >= 0 when allow_zero).
  void positive(const std::string& field, double v, bool allow_zero = false) {
    if (!std::isfinite(v)) return;  // already reported by the finite sweep
    if (v < 0.0 || (!allow_zero && v == 0.0))
      sink_.error(codes::tech_nonpositive,
                  field + " must be " + (allow_zero ? ">= 0" : "> 0") +
                      ", got " + std::to_string(v));
  }
  void in_range(const std::string& field, double v, double lo, double hi) {
    if (!std::isfinite(v)) return;
    if (v < lo || v > hi)
      sink_.error(codes::tech_range,
                  field + " = " + std::to_string(v) + " outside [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }

  void check_mosfet(const std::string& section, const dev::MosfetParams& p,
                    dev::Polarity expected) {
    for (const Field& f : mosfet_fields(p))
      if (!std::isfinite(f.value)) nonfinite(section + "." + f.name, f.value);
    if (p.polarity != expected)
      sink_.error(codes::tech_polarity,
                  "[" + section + "] parameters carry " +
                      dev::to_string(p.polarity) + " polarity");
    // Physical ranges (device-literature bounds; see device/params.hpp
    // for the modeling meaning of each).
    in_range(section + ".vt0", p.vt0, 1e-3, 2.0);
    positive(section + ".gamma", p.gamma, /*allow_zero=*/true);
    positive(section + ".phi2f", p.phi2f);
    in_range(section + ".dibl", p.dibl, 0.0, 0.5);
    in_range(section + ".n_sub", p.n_sub, 1.0, 3.0);
    positive(section + ".i_at_vt", p.i_at_vt);
    in_range(section + ".alpha", p.alpha, 1.0, 2.0);
    positive(section + ".k_drive", p.k_drive);
    positive(section + ".kv", p.kv);
    positive(section + ".cox_area", p.cox_area);
    positive(section + ".l_drawn", p.l_drawn);
    in_range(section + ".cg_floor_frac", p.cg_floor_frac, 1e-6, 1.0);
    positive(section + ".cg_sigma", p.cg_sigma);
    positive(section + ".cj0_area", p.cj0_area, /*allow_zero=*/true);
    positive(section + ".phi_b", p.phi_b);
    in_range(section + ".mj", p.mj, 1e-6, 1.0 - 1e-6);
    positive(section + ".drain_extent", p.drain_extent, /*allow_zero=*/true);
    positive(section + ".c_overlap_w", p.c_overlap_w, /*allow_zero=*/true);
  }

  void check_process_scalars() {
    const Field scalars[] = {
        {"vdd_nominal", t_.vdd_nominal},
        {"vdd_min", t_.vdd_min},
        {"vdd_max", t_.vdd_max},
        {"wire_cap_per_m", t_.wire_cap_per_m},
        {"avg_wire_per_fanout", t_.avg_wire_per_fanout},
        {"unit_nmos_width", t_.unit_nmos_width},
        {"unit_pmos_width", t_.unit_pmos_width},
        {"backgate_swing", t_.backgate_swing},
        {"high_vt_offset", t_.high_vt_offset},
        {"standby_body_bias", t_.standby_body_bias},
        {"temp_k", t_.temp_k},
        {"soias.t_si", t_.soias_geometry.t_si},
        {"soias.t_box", t_.soias_geometry.t_box},
        {"soias.t_fox", t_.soias_geometry.t_fox},
    };
    for (const Field& f : scalars)
      if (!std::isfinite(f.value)) nonfinite(f.name, f.value);

    if (std::isfinite(t_.vdd_min) && std::isfinite(t_.vdd_nominal) &&
        std::isfinite(t_.vdd_max)) {
      if (!(t_.vdd_min > 0.0 && t_.vdd_min <= t_.vdd_nominal &&
            t_.vdd_nominal <= t_.vdd_max))
        sink_.error(codes::tech_vdd_order,
                    "require 0 < vdd_min <= vdd_nominal <= vdd_max (got " +
                        std::to_string(t_.vdd_min) + " / " +
                        std::to_string(t_.vdd_nominal) + " / " +
                        std::to_string(t_.vdd_max) + ")");
    }
    positive("unit_nmos_width", t_.unit_nmos_width);
    positive("unit_pmos_width", t_.unit_pmos_width);
    positive("wire_cap_per_m", t_.wire_cap_per_m, /*allow_zero=*/true);
    positive("avg_wire_per_fanout", t_.avg_wire_per_fanout,
             /*allow_zero=*/true);
    positive("temp_k", t_.temp_k);
    if (std::isfinite(t_.temp_k) && t_.temp_k > 0.0 &&
        (t_.temp_k < 150.0 || t_.temp_k > 500.0))
      sink_.warning(codes::tech_range,
                    "temp_k = " + std::to_string(t_.temp_k) +
                        " K is outside the calibrated 150-500 K range");
  }

  void check_vt_control() {
    using tech::VtControl;
    if (t_.vt_control == VtControl::soias_backgate) {
      positive("soias.t_si", t_.soias_geometry.t_si);
      positive("soias.t_box", t_.soias_geometry.t_box);
      positive("soias.t_fox", t_.soias_geometry.t_fox);
      positive("backgate_swing", t_.backgate_swing, /*allow_zero=*/true);
    }
    if (t_.vt_control == VtControl::dual_vt)
      positive("high_vt_offset", t_.high_vt_offset);
    if (t_.vt_control == VtControl::body_bias)
      positive("standby_body_bias", t_.standby_body_bias,
               /*allow_zero=*/true);
  }

  const tech::Process& t_;
  DiagSink& sink_;
};

}  // namespace

void validate(const tech::Process& process, DiagSink& sink) {
  TechChecker{process, sink}.run();
}

}  // namespace lv::check
