#include "analysis/analysis_context.hpp"

#include <algorithm>
#include <cmath>

#include "device/capacitance.hpp"
#include "device/stack.hpp"
#include "obs/metrics.hpp"
#include "timing/delay_model.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"

namespace lv::analysis {

namespace u = lv::util;

namespace {

// Memo traffic counters (lv::obs). Stability::scheduling: parallel
// sweeps hand each worker its own context clone, so hit/miss totals
// legitimately vary with thread width even though every *value*
// produced stays bit-identical.
enum class Memo { stack, leak, drive };

void note_memo(Memo table, bool hit) {
  if (!lv::obs::enabled()) return;
  using lv::obs::Registry;
  using lv::obs::Stability;
  static auto& stack_hit = Registry::global().counter(
      "analysis.stack_memo.hits", Stability::scheduling);
  static auto& stack_miss = Registry::global().counter(
      "analysis.stack_memo.misses", Stability::scheduling);
  static auto& leak_hit = Registry::global().counter(
      "analysis.leak_memo.hits", Stability::scheduling);
  static auto& leak_miss = Registry::global().counter(
      "analysis.leak_memo.misses", Stability::scheduling);
  static auto& drive_hit = Registry::global().counter(
      "analysis.drive_memo.hits", Stability::scheduling);
  static auto& drive_miss = Registry::global().counter(
      "analysis.drive_memo.misses", Stability::scheduling);
  switch (table) {
    case Memo::stack: (hit ? stack_hit : stack_miss).add(1); break;
    case Memo::leak: (hit ? leak_hit : leak_miss).add(1); break;
    case Memo::drive: (hit ? drive_hit : drive_miss).add(1); break;
  }
}

}  // namespace

AnalysisContext::AnalysisContext(const circuit::Netlist& netlist,
                                 const tech::Process& process,
                                 OperatingPoint op)
    : netlist_{netlist},
      process_{process},
      op_{op},
      loads_{netlist, process, op.vdd} {
  u::require(op.vdd > 0.0, "AnalysisContext: vdd must be > 0");
  netlist.validate();
}

void AnalysisContext::set_operating_point(const OperatingPoint& op) {
  u::require(op.vdd > 0.0, "AnalysisContext: vdd must be > 0");
  if (op.vdd != op_.vdd) loads_.retarget(op.vdd);
  op_ = op;
}

const AnalysisContext::StackFactors& AnalysisContext::stack_factors() const {
  const auto key = std::tuple{op_.vdd, op_.vt_shift, op_.temp_k};
  const auto it = stack_memo_.find(key);
  note_memo(Memo::stack, it != stack_memo_.end());
  if (it != stack_memo_.end()) return it->second;

  // Numeric stack factors: leakage of an s-high stack of unit devices
  // relative to s parallel unit devices' worth of width. Height 1 is 1 by
  // definition; higher stacks come from the solver (two-device model
  // cascaded for deeper stacks).
  StackFactors sf;
  sf.n[0] = sf.n[1] = 1.0;
  sf.p[0] = sf.p[1] = 1.0;
  const auto n_unit = process_.make_nmos(1.0, op_.vt_shift);
  const auto p_unit = process_.make_pmos(1.0, op_.vt_shift);
  const auto two_n =
      device::stack_leakage(n_unit, n_unit, op_.vdd, op_.temp_k).current /
      n_unit.off_current(op_.vdd, 0.0, op_.temp_k);
  const auto two_p =
      device::stack_leakage(p_unit, p_unit, op_.vdd, op_.temp_k).current /
      p_unit.off_current(op_.vdd, 0.0, op_.temp_k);
  for (int s = 2; s <= 4; ++s) {
    // Each extra series device multiplies the reduction by roughly the
    // two-stack ratio (diminishing, so clamp to not vanish entirely).
    sf.n[s] = std::max(two_n * std::pow(0.6, s - 2), 1e-4);
    sf.p[s] = std::max(two_p * std::pow(0.6, s - 2), 1e-4);
  }
  return stack_memo_.emplace(key, sf).first->second;
}

const std::vector<double>& AnalysisContext::cell_leakage(
    double extra_vt_shift) const {
  const auto key =
      std::tuple{op_.vdd, op_.vt_shift, extra_vt_shift, op_.temp_k};
  const auto it = leak_memo_.find(key);
  note_memo(Memo::leak, it != leak_memo_.end());
  if (it != leak_memo_.end()) return it->second;

  const StackFactors& sf = stack_factors();
  const auto n = process_.make_nmos(1.0, op_.vt_shift + extra_vt_shift);
  const auto p = process_.make_pmos(1.0, op_.vt_shift + extra_vt_shift);
  std::vector<double> table(
      static_cast<std::size_t>(circuit::CellKind::kind_count), 0.0);
  for (std::size_t k = 0; k < table.size(); ++k) {
    const auto& info = circuit::cell_info(static_cast<circuit::CellKind>(k));
    const double i_n = n.off_current(op_.vdd, 0.0, op_.temp_k) *
                       info.n_width_total *
                       sf.n[std::min(info.n_stack, 4)];
    const double i_p = p.off_current(op_.vdd, 0.0, op_.temp_k) *
                       info.p_width_total *
                       sf.p[std::min(info.p_stack, 4)];
    // State average: output high -> NMOS network leaks; output low -> PMOS.
    table[k] = 0.5 * (i_n + i_p);
  }
  return leak_memo_.emplace(key, std::move(table)).first->second;
}

double AnalysisContext::short_circuit_fraction() const {
  const auto key = std::tuple{op_.vdd, op_.vt_shift, op_.temp_k};
  const auto it = sc_frac_memo_.find(key);
  if (it != sc_frac_memo_.end()) return it->second;

  const auto n = process_.make_nmos(1.0, op_.vt_shift);
  const auto p = process_.make_pmos(1.0, op_.vt_shift);
  const double vtn = n.threshold(0.0, 0.0, op_.temp_k);
  const double vtp = p.threshold(0.0, 0.0, op_.temp_k);
  const double headroom = op_.vdd - vtn - vtp;
  // Scales with the overlap window; 0.10 at rail-dominated operation, the
  // "kept to less than 10-20% by equalizing edges" regime of Section 2.
  const double frac =
      headroom <= 0.0 ? 0.0 : 0.10 * std::min(1.0, headroom / op_.vdd);
  return sc_frac_memo_.emplace(key, frac).first->second;
}

const AnalysisContext::DriveParams& AnalysisContext::drive_params(
    double vt_shift) const {
  const auto key = std::pair{op_.vdd, vt_shift};
  const auto it = drive_memo_.find(key);
  note_memo(Memo::drive, it != drive_memo_.end());
  if (it != drive_memo_.end()) return it->second;

  DriveParams dp;
  dp.unit_drive = timing::unit_inverter_drive(process_, op_.vdd, vt_shift);
  dp.fo1_cap = process_.unit_inverter_caps(op_.vdd).fo1_load();
  return drive_memo_.emplace(key, dp).first->second;
}

double AnalysisContext::unit_drive_current(double vt_shift) const {
  return drive_params(vt_shift).unit_drive;
}

double AnalysisContext::delay_for_load(double c_load, double drive_mult,
                                       double vt_shift) const {
  u::require(drive_mult > 0.0, "AnalysisContext: drive must be > 0");
  return timing::alpha_power_delay(c_load, op_.vdd, drive_mult,
                                   drive_params(vt_shift).unit_drive);
}

double AnalysisContext::inverter_fo1_delay(double vt_shift) const {
  return delay_for_load(drive_params(vt_shift).fo1_cap, 1.0, vt_shift);
}

bool AnalysisContext::delay_feasible(double vt_shift) const {
  return timing::alpha_power_feasible(process_, op_.vdd, vt_shift);
}

namespace {
constexpr std::uint32_t kMemoBlobVersion = 1;
// A blob never legitimately carries more entries than a long sweep
// produces; anything past this is malformed input.
constexpr std::uint64_t kMaxMemoEntries = 1u << 20;
}  // namespace

std::string AnalysisContext::export_memos() const {
  const auto kind_count =
      static_cast<std::uint32_t>(circuit::CellKind::kind_count);
  u::ByteWriter w;
  w.u32(kMemoBlobVersion);
  w.u32(kind_count);
  w.u64(stack_memo_.size());
  for (const auto& [key, value] : stack_memo_) {
    w.f64(std::get<0>(key));
    w.f64(std::get<1>(key));
    w.f64(std::get<2>(key));
    for (const double v : value.n) w.f64(v);
    for (const double v : value.p) w.f64(v);
  }
  w.u64(leak_memo_.size());
  for (const auto& [key, value] : leak_memo_) {
    w.f64(std::get<0>(key));
    w.f64(std::get<1>(key));
    w.f64(std::get<2>(key));
    w.f64(std::get<3>(key));
    w.u64(value.size());
    for (const double v : value) w.f64(v);
  }
  w.u64(drive_memo_.size());
  for (const auto& [key, value] : drive_memo_) {
    w.f64(key.first);
    w.f64(key.second);
    w.f64(value.unit_drive);
    w.f64(value.fo1_cap);
  }
  w.u64(sc_frac_memo_.size());
  for (const auto& [key, value] : sc_frac_memo_) {
    w.f64(std::get<0>(key));
    w.f64(std::get<1>(key));
    w.f64(std::get<2>(key));
    w.f64(value);
  }
  return w.take();
}

bool AnalysisContext::import_memos(std::string_view blob) const {
  try {
    u::ByteReader r{blob};
    if (r.u32() != kMemoBlobVersion) return false;
    // Reject blobs from a build with a different cell catalog — the
    // leakage tables are indexed by CellKind.
    if (r.u32() != static_cast<std::uint32_t>(circuit::CellKind::kind_count))
      return false;
    // Decode fully before merging so a blob truncated mid-table cannot
    // leave a half-imported context.
    decltype(stack_memo_) stack;
    decltype(leak_memo_) leak;
    decltype(drive_memo_) drive;
    decltype(sc_frac_memo_) sc;
    std::uint64_t n = r.u64();
    if (n > kMaxMemoEntries) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      // Sequenced reads: function-argument evaluation order is
      // unspecified, so the key components must come off the wire one
      // statement at a time.
      const double k0 = r.f64();
      const double k1 = r.f64();
      const double k2 = r.f64();
      const auto key = std::make_tuple(k0, k1, k2);
      StackFactors value;
      for (double& v : value.n) v = r.f64();
      for (double& v : value.p) v = r.f64();
      stack.emplace(key, value);
    }
    n = r.u64();
    if (n > kMaxMemoEntries) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double k0 = r.f64();
      const double k1 = r.f64();
      const double k2 = r.f64();
      const double k3 = r.f64();
      const auto key = std::make_tuple(k0, k1, k2, k3);
      const std::uint64_t len = r.u64();
      if (len > kMaxMemoEntries) return false;
      std::vector<double> value(static_cast<std::size_t>(len));
      for (double& v : value) v = r.f64();
      leak.emplace(key, std::move(value));
    }
    n = r.u64();
    if (n > kMaxMemoEntries) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double k0 = r.f64();
      const double k1 = r.f64();
      const auto key = std::make_pair(k0, k1);
      DriveParams value;
      value.unit_drive = r.f64();
      value.fo1_cap = r.f64();
      drive.emplace(key, value);
    }
    n = r.u64();
    if (n > kMaxMemoEntries) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double k0 = r.f64();
      const double k1 = r.f64();
      const double k2 = r.f64();
      const auto key = std::make_tuple(k0, k1, k2);
      const double value = r.f64();
      sc.emplace(key, value);
    }
    if (!r.done()) return false;
    // Merge without overwriting: a locally computed entry always wins
    // over an imported one (they are the same bits anyway when both come
    // from this process version).
    for (auto& [key, value] : stack) stack_memo_.emplace(key, value);
    for (auto& [key, value] : leak)
      leak_memo_.emplace(key, std::move(value));
    for (auto& [key, value] : drive) drive_memo_.emplace(key, value);
    for (auto& [key, value] : sc) sc_frac_memo_.emplace(key, value);
    return true;
  } catch (const u::Error&) {
    return false;
  }
}

}  // namespace lv::analysis
