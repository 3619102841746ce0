// Retargetable operating-point analysis context (the paper's tooling
// thesis, applied to the tool itself).
//
// Low-voltage design-space exploration re-evaluates C(V), leakage, and
// delay across many (V_DD, V_T, T) operating points — Figs. 1-4 and 10
// are all sweeps. Rebuilding every analysis engine per point repeats the
// expensive netlist-structure work (pin walks, validation) and the
// device-model work (capacitance integrals, stack solves) that does not
// depend on the point, or can be memoized by it.
//
// AnalysisContext splits the two: it owns the netlist + process and keeps
//  * structure caches built once — validated netlist, topo order and
//    fanout (owned by the Netlist), load *coefficients* per net
//    (circuit::LoadModel in its affine-in-unit-caps form);
//  * per-operating-point values refreshed by set_operating_point — the
//    evaluated net loads (O(nets));
//  * memoized device-model results keyed by the exact operating values —
//    stack-effect derating factors (vdd, vt_shift, temp), per-cell-kind
//    leakage tables (vdd, vt_shift, temp), and alpha-power drive
//    parameters (vdd, vt_shift).
//
// power::PowerEstimator and timing::Sta evaluate through a context (their
// classic constructors build a private one), so a sweep constructs the
// world once and calls set_operating_point per point. Every number a
// context-backed engine produces is bit-identical to the same engine
// freshly constructed at that operating point (pinned by
// tests/analysis_context_test.cpp).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/load_model.hpp"
#include "circuit/netlist.hpp"
#include "tech/process.hpp"

namespace lv::analysis {

// One evaluation point of the design space. (Historically lived in
// lv::power, which still aliases it; analysis owns it now because every
// engine — power, timing, optimization — is parameterized by it.)
struct OperatingPoint {
  double vdd = 1.0;       // [V]
  double f_clk = 50e6;    // [Hz]
  double vt_shift = 0.0;  // applied to all devices [V]
  double temp_k = 300.0;
};

class AnalysisContext {
 public:
  AnalysisContext(const circuit::Netlist& netlist,
                  const tech::Process& process, OperatingPoint op = {});

  const circuit::Netlist& netlist() const { return netlist_; }
  const tech::Process& process() const { return process_; }
  const OperatingPoint& operating_point() const { return op_; }

  // Retargets every cached per-point quantity to `op`. O(nets) when the
  // supply changes (affine load re-evaluation), O(1) otherwise; memoized
  // device-model entries are reused when the point was seen before.
  void set_operating_point(const OperatingPoint& op);

  // Independent copy for a parallel worker: the mutable caches (evaluated
  // loads, memo tables) are deep-copied and the process value duplicated,
  // while the netlist stays shared; it builds its structure once, under
  // its own lock, whichever clone asks first. A clone behaves exactly like
  // a context freshly constructed at the same operating point (pinned by
  // tests/analysis_context_test.cpp); set_operating_point on either side
  // never affects the other.
  AnalysisContext clone() const { return AnalysisContext{*this}; }

  // Clones are handed to workers by value (exec::parallel_map_stateful).
  AnalysisContext(AnalysisContext&&) = default;

  // Net loads evaluated at the current operating point.
  const circuit::LoadModel& loads() const { return loads_; }

  // ---- leakage ------------------------------------------------------
  // Stack-effect derating factors for series heights 0..4 at the current
  // operating point (height <= 1 is 1.0 by definition).
  struct StackFactors {
    double n[5];
    double p[5];
  };
  const StackFactors& stack_factors() const;

  // State-averaged leakage current [A] of one instance of each CellKind
  // (indexed by static_cast<size_t>(kind)) at the current operating point
  // plus `extra_vt_shift` (standby body bias / back gate).
  const std::vector<double>& cell_leakage(double extra_vt_shift = 0.0) const;

  // ---- short-circuit power ------------------------------------------
  // Veendrick-style short-circuit fraction of switching power at the
  // current operating point: zero when V_DD < V_Tn + |V_Tp| (no overlap
  // conduction), scaling toward the classic ~10% at rail-dominated
  // operation. Building the two unit MOSFET models this needs is not
  // free, and estimators call it per estimate() inside sweep loops, so
  // the value is memoized on (vdd, vt_shift, temp_k) — retargeting the
  // operating point keys a fresh entry, identical points hit the cache.
  double short_circuit_fraction() const;

  // ---- alpha-power delay primitives ---------------------------------
  // timing::DelayModel's expressions at (op.vdd, vt_shift), through the
  // same free functions (timing/delay_model.hpp), so context-backed STA
  // equals freshly-constructed STA exactly.
  double unit_drive_current(double vt_shift = 0.0) const;
  double delay_for_load(double c_load, double drive_mult = 1.0,
                        double vt_shift = 0.0) const;
  double inverter_fo1_delay(double vt_shift = 0.0) const;
  bool delay_feasible(double vt_shift = 0.0) const;

  // ---- memo persistence ---------------------------------------------
  // The four memo tables above are pure functions of the process and
  // their keys — nothing in them depends on the netlist — so they are
  // portable between contexts over the same process, and across
  // processes/restarts via the artifact store (lv-memos/1, layout in
  // docs/FORMATS.md). export_memos serializes every entry (deterministic:
  // std::map iteration order, bit-exact doubles); import_memos merges a
  // blob's entries into this context without overwriting existing ones,
  // returning false (and changing nothing else) on a malformed or
  // version-mismatched blob. Imported values are the same bits a local
  // recomputation would produce, so warm-started results stay
  // bit-identical (pinned by analysis_context_test).
  std::string export_memos() const;
  bool import_memos(std::string_view blob) const;

 private:
  // Copying is exposed only through clone() so a by-value share is always
  // an explicit decision (contexts are mutated by set_operating_point and
  // silently copying one mid-sweep is almost always a bug).
  AnalysisContext(const AnalysisContext&) = default;

  struct DriveParams {
    double unit_drive = 0.0;  // average N/P on-current of a unit inverter
    double fo1_cap = 0.0;     // FO1 inverter load at this supply
  };
  const DriveParams& drive_params(double vt_shift) const;

  const circuit::Netlist& netlist_;
  // Stored by value: Process is a small parameter bundle and callers often
  // pass factory temporaries (tech::soi_low_vt()).
  tech::Process process_;
  OperatingPoint op_;
  circuit::LoadModel loads_;

  // Memo caches, keyed by the exact operating values that the cached
  // computation depends on. Entries are never invalidated: the netlist is
  // append-only and the process is owned by value, so a key's value can
  // never change. Population from const accessors is logically const.
  mutable std::map<std::tuple<double, double, double>, StackFactors>
      stack_memo_;  // (vdd, vt_shift, temp_k)
  // Keyed on op.vt_shift and extra_vt_shift separately: the stack factors
  // folded into a table come from op.vt_shift alone while the device
  // off-currents see the sum, so equal sums are not interchangeable.
  mutable std::map<std::tuple<double, double, double, double>,
                   std::vector<double>>
      leak_memo_;  // (vdd, op vt_shift, extra vt_shift, temp_k)
  mutable std::map<std::pair<double, double>, DriveParams>
      drive_memo_;  // (vdd, vt_shift)
  mutable std::map<std::tuple<double, double, double>, double>
      sc_frac_memo_;  // (vdd, vt_shift, temp_k)
};

}  // namespace lv::analysis
