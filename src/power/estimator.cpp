#include "power/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "device/capacitance.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lv::power {

namespace u = lv::util;
using circuit::InstanceId;
using circuit::NetId;

namespace {

// Estimator metrics (lv::obs), all Stability::exact: estimate calls and
// the per-component accumulation term counts depend only on the netlist
// and how many points were evaluated, never on scheduling.
lv::obs::Counter& c_estimates() {
  static auto& c = lv::obs::Registry::global().counter("power.estimate_calls");
  return c;
}
lv::obs::Counter& c_switching_terms() {
  static auto& c =
      lv::obs::Registry::global().counter("power.switching_terms");
  return c;
}
lv::obs::Counter& c_leakage_terms() {
  static auto& c = lv::obs::Registry::global().counter("power.leakage_terms");
  return c;
}

// The accumulation loops stay guard-free (a per-term isfinite would cost
// on the hot path); instead the finished breakdown is checked once, and
// only on failure is the sum rescanned to name the offending term.
[[noreturn]] void throw_nonfinite(const PowerBreakdown& out,
                                  const circuit::Netlist& netlist,
                                  const circuit::LoadModel& loads,
                                  const sim::ActivityStats* stats,
                                  double v2f) {
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    const double alpha = stats != nullptr ? stats->alpha(n) : 1.0;
    if (!std::isfinite(alpha * loads.net_load(n) * v2f))
      throw check::InputError(
          check::codes::power_nonfinite,
          "PowerEstimator: non-finite switching term on net '" +
              netlist.net(n).name + "' (alpha = " + std::to_string(alpha) +
              ", load = " + std::to_string(loads.net_load(n)) + " F)");
  }
  const char* component = !std::isfinite(out.leakage)   ? "leakage"
                          : !std::isfinite(out.clock)   ? "clock"
                          : !std::isfinite(out.switching) ? "switching"
                                                          : "short-circuit";
  throw check::InputError(
      check::codes::power_nonfinite,
      std::string("PowerEstimator: non-finite ") + component +
          " component; check the process parameters and operating point");
}

}  // namespace

PowerEstimator::PowerEstimator(const circuit::Netlist& netlist,
                               const tech::Process& process,
                               OperatingPoint op)
    : owned_{std::make_shared<analysis::AnalysisContext>(netlist, process,
                                                         op)},
      ctx_{owned_.get()} {
  u::require(op.vdd > 0.0 && op.f_clk > 0.0,
             "PowerEstimator: vdd and f_clk must be > 0");
}

PowerEstimator::PowerEstimator(const analysis::AnalysisContext& ctx)
    : ctx_{&ctx} {}

double PowerEstimator::short_circuit_fraction() const {
  // Memoized in the context on (vdd, vt_shift, temp_k): estimate() and
  // by_module() run inside sweep loops, and rebuilding the two unit
  // MOSFET models per call dominated small-netlist estimates.
  return ctx_->short_circuit_fraction();
}

double PowerEstimator::leakage_current(double extra_vt_shift) const {
  const auto& netlist = ctx_->netlist();
  const std::vector<double>& per_kind = ctx_->cell_leakage(extra_vt_shift);
  double total = 0.0;
  for (InstanceId i = 0; i < netlist.instance_count(); ++i)
    total += per_kind[static_cast<std::size_t>(netlist.instance(i).kind)];
  c_leakage_terms().add(netlist.instance_count());
  return total;
}

double PowerEstimator::module_leakage_current(const std::string& module,
                                              double extra_vt_shift) const {
  const auto& netlist = ctx_->netlist();
  const std::vector<double>& per_kind = ctx_->cell_leakage(extra_vt_shift);
  double total = 0.0;
  for (InstanceId i = 0; i < netlist.instance_count(); ++i)
    if (netlist.instance(i).module == module)
      total += per_kind[static_cast<std::size_t>(netlist.instance(i).kind)];
  return total;
}

PowerBreakdown PowerEstimator::estimate(const sim::ActivityStats& stats) const {
  const auto& netlist = ctx_->netlist();
  const auto& op = ctx_->operating_point();
  const auto& loads = ctx_->loads();
  PowerBreakdown out;
  const double v2f = op.vdd * op.vdd * op.f_clk;
  for (NetId n = 0; n < netlist.net_count(); ++n)
    out.switching += stats.alpha(n) * loads.net_load(n) * v2f;
  out.short_circuit = out.switching * short_circuit_fraction();
  out.leakage = leakage_current() * op.vdd;
  out.clock = loads.clock_cap() * v2f;
  if (!std::isfinite(out.total()))
    throw_nonfinite(out, netlist, loads, &stats, v2f);
  c_estimates().add(1);
  c_switching_terms().add(netlist.net_count());
  return out;
}

PowerBreakdown PowerEstimator::estimate_uniform(double alpha) const {
  u::require(alpha >= 0.0, "PowerEstimator: alpha must be >= 0");
  const auto& op = ctx_->operating_point();
  const auto& loads = ctx_->loads();
  PowerBreakdown out;
  const double v2f = op.vdd * op.vdd * op.f_clk;
  out.switching = alpha * loads.total_cap() * v2f;
  out.short_circuit = out.switching * short_circuit_fraction();
  out.leakage = leakage_current() * op.vdd;
  out.clock = loads.clock_cap() * v2f;
  if (!std::isfinite(out.total()))
    throw_nonfinite(out, ctx_->netlist(), loads, nullptr, alpha * v2f);
  c_estimates().add(1);
  return out;
}

std::map<std::string, PowerBreakdown> PowerEstimator::by_module(
    const sim::ActivityStats& stats) const {
  const auto& netlist = ctx_->netlist();
  const auto& op = ctx_->operating_point();
  const auto& loads = ctx_->loads();
  std::map<std::string, PowerBreakdown> out;
  const double v2f = op.vdd * op.vdd * op.f_clk;
  const double sc_frac = short_circuit_fraction();
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    const auto& net = netlist.net(n);
    // Driverless nets (primary inputs) are billed to the top module ""
    // so the per-module split always sums to the whole-netlist estimate.
    const std::string mod = net.driver == ~InstanceId{0}
                                ? std::string{}
                                : netlist.instance(net.driver).module;
    auto& slot = out[mod];
    const double sw = stats.alpha(n) * loads.net_load(n) * v2f;
    slot.switching += sw;
    slot.short_circuit += sw * sc_frac;
  }
  const std::vector<double>& per_kind = ctx_->cell_leakage(0.0);
  for (InstanceId i = 0; i < netlist.instance_count(); ++i) {
    const auto& inst = netlist.instance(i);
    out[inst.module].leakage +=
        per_kind[static_cast<std::size_t>(inst.kind)] * op.vdd;
    if (circuit::cell_info(inst.kind).sequential)
      out[inst.module].clock +=
          circuit::cell_info(inst.kind).clock_cap_mult *
          loads.unit_input_cap() * v2f;
  }
  return out;
}

double PowerEstimator::switched_cap_per_cycle(
    const sim::ActivityStats& stats) const {
  const auto& netlist = ctx_->netlist();
  const auto& loads = ctx_->loads();
  double cap = 0.0;
  for (NetId n = 0; n < netlist.net_count(); ++n)
    cap += stats.alpha(n) * loads.net_load(n);
  return cap + loads.clock_cap();
}

double register_switched_cap(circuit::CellKind style,
                             const tech::Process& process, double vdd,
                             double data_alpha) {
  const auto& info = circuit::cell_info(style);
  u::require(info.sequential,
             "register_switched_cap: style must be sequential");
  const device::InverterCaps unit = process.unit_inverter_caps(vdd);
  const double unit_in = unit.n_input + unit.p_input;
  const double unit_par = unit.n_parasitic + unit.p_parasitic;
  // Clock load switches every cycle; data-dependent caps (D pin, internal
  // nodes, Q parasitic) switch with the data activity.
  const double clock_part = info.clock_cap_mult * unit_in;
  const double data_part =
      data_alpha * (info.pin_gate_mult * unit_in +
                    info.drive_mult * info.intrinsic_cap_mult * unit_par);
  return clock_part + data_part;
}

}  // namespace lv::power
