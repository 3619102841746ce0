#include "device/capacitance.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"

namespace lv::device {

namespace {

// Mean over the 0 -> vdd swing of the N integrands `sample(v)` returns,
// by the composite trapezoid rule with `panels` panels: the sample points
// and summation order of util::integrate_trapezoid, then the division by
// vdd. Each integrand keeps its own accumulator, so evaluating several in
// one pass gives each the bits it would get alone. With no swing
// (vdd <= 0) the value at 0 V stands in for the mean.
template <std::size_t N, class Sample>
std::array<double, N> swing_mean(double vdd, int panels, Sample&& sample) {
  if (vdd <= 0.0) return sample(0.0);
  const double lo = 0.0;
  const double h = (vdd - lo) / panels;
  const std::array<double, N> first = sample(lo);
  const std::array<double, N> last = sample(vdd);
  std::array<double, N> acc;
  for (std::size_t k = 0; k < N; ++k) acc[k] = 0.5 * (first[k] + last[k]);
  for (int i = 1; i < panels; ++i) {
    const std::array<double, N> s = sample(lo + h * i);
    for (std::size_t k = 0; k < N; ++k) acc[k] += s[k];
  }
  for (std::size_t k = 0; k < N; ++k) acc[k] = acc[k] * h / vdd;
  return acc;
}

}  // namespace

CapacitanceModel::CapacitanceModel(MosfetParams params, double w)
    : params_{params}, w_{w} {
  params_.validate();
  lv::util::require(w > 0.0, "CapacitanceModel: width must be > 0");
}

double CapacitanceModel::gate_cap_max() const {
  return params_.cox_area * w_ * params_.l_drawn;
}

double CapacitanceModel::gate_shape(double v) const {
  // Logistic rise centred on vt0.
  const double x = (v - params_.vt0) / params_.cg_sigma;
  return 1.0 / (1.0 + std::exp(-x));
}

double CapacitanceModel::gate_cap_from_shape(double shape) const {
  // From floor_frac*Cox (shape 0) to Cox (shape 1).
  const double cmax = gate_cap_max();
  const double floor_frac = params_.cg_floor_frac;
  return cmax * (floor_frac + (1.0 - floor_frac) * shape);
}

bool CapacitanceModel::same_gate_shape(const CapacitanceModel& other) const {
  return params_.vt0 == other.params_.vt0 &&
         params_.cg_sigma == other.params_.cg_sigma;
}

double CapacitanceModel::gate_cap(double v) const {
  return gate_cap_from_shape(gate_shape(v));
}

double CapacitanceModel::gate_cap_effective(double vdd) const {
  return swing_mean<1>(vdd, kGateCapPanels, [this](double v) {
    return std::array{gate_cap(v)};
  })[0];
}

double CapacitanceModel::gate_charge_energy(double vdd) const {
  if (vdd <= 0.0) return 0.0;
  // Energy drawn from the supply when charging through a PMOS is
  // Q * vdd = vdd * integral C(v) dv; the capacitor stores
  // integral C(v) v dv. We report the supply energy (what a power
  // estimator bills per transition), consistent with C_eff * vdd^2.
  return gate_cap_effective(vdd) * vdd * vdd;
}

double CapacitanceModel::junction_shape(double vr) const {
  return std::pow(1.0 + std::max(0.0, vr) / params_.phi_b, params_.mj);
}

double CapacitanceModel::junction_cap_from_shape(double shape) const {
  const double area = w_ * params_.drain_extent;
  const double c0 = params_.cj0_area * area;
  return c0 / shape;
}

bool CapacitanceModel::same_junction_shape(
    const CapacitanceModel& other) const {
  return params_.phi_b == other.params_.phi_b && params_.mj == other.params_.mj;
}

double CapacitanceModel::junction_cap(double vr) const {
  return junction_cap_from_shape(junction_shape(vr));
}

double CapacitanceModel::junction_cap_effective(double vdd) const {
  return swing_mean<1>(vdd, kJunctionCapPanels, [this](double v) {
    return std::array{junction_cap(v)};
  })[0];
}

double CapacitanceModel::overlap_cap() const {
  return 2.0 * params_.c_overlap_w * w_;  // source + drain overlap
}

double CapacitanceModel::input_cap_effective(double vdd) const {
  return gate_cap_effective(vdd) + overlap_cap();
}

double CapacitanceModel::drive_parasitic_effective(double vdd) const {
  return junction_cap_effective(vdd) + overlap_cap();
}

InverterCaps unit_inverter_caps(const CapacitanceModel& nmos,
                                const CapacitanceModel& pmos, double vdd) {
  const bool gate_shared = nmos.same_gate_shape(pmos);
  const auto gate = swing_mean<2>(vdd, kGateCapPanels, [&](double v) {
    const double s = nmos.gate_shape(v);
    return std::array{
        nmos.gate_cap_from_shape(s),
        pmos.gate_cap_from_shape(gate_shared ? s : pmos.gate_shape(v))};
  });
  const bool junction_shared = nmos.same_junction_shape(pmos);
  const auto junction = swing_mean<2>(vdd, kJunctionCapPanels, [&](double v) {
    const double d = nmos.junction_shape(v);
    return std::array{
        nmos.junction_cap_from_shape(d),
        pmos.junction_cap_from_shape(junction_shared ? d
                                                     : pmos.junction_shape(v))};
  });
  return {gate[0] + nmos.overlap_cap(), gate[1] + pmos.overlap_cap(),
          junction[0] + nmos.overlap_cap(), junction[1] + pmos.overlap_cap()};
}

}  // namespace lv::device
