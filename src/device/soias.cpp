#include "device/soias.hpp"

#include "util/units.hpp"

namespace lv::device {

namespace u = lv::util;

SoiasDevice::SoiasDevice(Mosfet base, SoiasGeometry geometry)
    : base_{std::move(base)}, geometry_{geometry} {
  check::rule::require(geometry_, kSoiasFields, "soias");
}

double SoiasDevice::coupling_ratio() const {
  const double c_si = u::eps_si / geometry_.t_si;
  const double c_box = u::eps_ox / geometry_.t_box;
  const double c_of = u::eps_ox / geometry_.t_fox;
  return (c_si * c_box) / ((c_si + c_box) * c_of);
}

double SoiasDevice::vt_shift(double vgb) const {
  return -coupling_ratio() * vgb;
}

Mosfet SoiasDevice::at_back_bias(double vgb) const {
  return base_.with_vt_shift(vt_shift(vgb));
}

double SoiasDevice::back_gate_cap() const {
  const double c_si = u::eps_si / geometry_.t_si;
  const double c_box = u::eps_ox / geometry_.t_box;
  const double series = (c_si * c_box) / (c_si + c_box);  // per area
  const double area = base_.width() * base_.length();
  return series * area;
}

}  // namespace lv::device
