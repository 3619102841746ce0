#include "timing/delay_model.hpp"

#include "util/error.hpp"

namespace lv::timing {

DelayModel::DelayModel(const tech::Process& process, double vdd,
                       double vt_shift)
    : DelayModel{process, vdd, vt_shift,
                 process.unit_inverter_caps(vdd).fo1_load()} {}

DelayModel::DelayModel(const tech::Process& process, double vdd,
                       double vt_shift, double fo1_load)
    : process_{process}, vdd_{vdd}, vt_shift_{vt_shift}, fo1_cap_{fo1_load} {
  lv::util::require(vdd > 0.0, "DelayModel: vdd must be > 0");
  unit_drive_ = unit_inverter_drive(process, vdd, vt_shift);
}

double DelayModel::unit_drive_current() const { return unit_drive_; }

bool DelayModel::feasible() const {
  return alpha_power_feasible(process_, vdd_, vt_shift_);
}

double DelayModel::delay_for_load(double c_load, double drive_mult) const {
  lv::util::require(drive_mult > 0.0, "DelayModel: drive must be > 0");
  return alpha_power_delay(c_load, vdd_, drive_mult, unit_drive_);
}

double DelayModel::inverter_fo1_delay() const {
  return delay_for_load(fo1_cap_, 1.0);
}

double RingOscillator::stage_delay(const tech::Process& process, double vdd,
                                   double vt_shift) const {
  const DelayModel dm{process, vdd, vt_shift};
  return dm.inverter_fo1_delay();
}

double RingOscillator::period(const tech::Process& process, double vdd,
                              double vt_shift) const {
  return 2.0 * stages * stage_delay(process, vdd, vt_shift);
}

double RingOscillator::frequency(const tech::Process& process, double vdd,
                                 double vt_shift) const {
  const double t = period(process, vdd, vt_shift);
  return t > 0.0 ? 1.0 / t : 0.0;
}

double RingOscillator::leakage_current(const tech::Process& process,
                                       double vdd, double vt_shift) const {
  const auto n = process.make_nmos(1.0, vt_shift);
  const auto p = process.make_pmos(1.0, vt_shift);
  // Half the stages leak through the NMOS (output high), half through the
  // PMOS (output low).
  return 0.5 * stages * (n.off_current(vdd, 0.0, process.temp_k) +
                         p.off_current(vdd, 0.0, process.temp_k));
}

}  // namespace lv::timing
