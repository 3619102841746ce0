// Slack-driven dual-VT assignment and MTCMOS sleep-device sizing
// (paper Section 4's multiple-threshold technology, made into tools).
//
// assign_dual_vt: start with every gate at the low threshold, then walk
// gates in descending-slack order, moving each to the high-VT flavor when
// the netlist still meets the clock period afterwards. Off-critical gates
// absorb the extra delay; the critical path keeps its low-VT speed while
// total leakage collapses. Each decision is one arrival pass over gate
// delays cached at both flavors (timing/arrival.hpp), eight candidates at
// a time with a one-by-one retry when a batch misses; STA delay is
// monotone in the moves, so any batch size gives the same assignment.
//
// size_sleep_transistor: pick the narrowest high-VT footer whose
// virtual-rail droop keeps the active delay penalty under a bound, then
// report the standby leakage through the resulting stack.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "opt/status.hpp"
#include "tech/process.hpp"
#include "timing/sta.hpp"

namespace lv::opt {

struct DualVtResult {
  std::vector<bool> use_high_vt;  // per instance
  std::size_t high_vt_count = 0;
  double delay_before = 0.0;      // all-low-VT critical delay [s]
  double delay_after = 0.0;       // mixed-VT critical delay [s]
  double leakage_before = 0.0;    // all-low-VT leakage current [A]
  double leakage_after = 0.0;     // mixed-VT leakage current [A]
  double clock_period = 0.0;      // the constraint used [s]
  // iterations = full STAs (3) + arrival passes; residual = final slack
  // (clock_period - delay_after) [s]. Not converged when the mixed
  // assignment misses the period — the greedy reverts every violating
  // move, so this indicates numerically inconsistent timing.
  Convergence status;
};

// `period_margin` sets the clock period as (1 + period_margin) x the
// all-low-VT critical delay. A non-finite gate delay at either flavor
// throws check::InputError `sta.nonfinite`.
DualVtResult assign_dual_vt(const circuit::Netlist& netlist,
                            const tech::Process& process, double vdd,
                            double period_margin = 0.05);

struct MtcmosSizing {
  double sleep_width_mult = 0.0;   // footer width, unit widths
  double delay_penalty = 1.0;      // active-mode slowdown factor
  double standby_leakage = 0.0;    // gated block standby current [A]
  double unguarded_leakage = 0.0;  // same block without a footer [A]
  bool feasible = false;
  // iterations = bisection steps over the footer width; residual = final
  // width-bracket size [unit widths]. Not converged when even the widest
  // footer in range exceeds the delay-penalty bound.
  Convergence status;
};

// Sizes a high-VT footer for a block whose low-VT devices total
// `logic_width_mult` unit widths and whose peak switching demand is
// `peak_current` [A]. Penalty bound `max_penalty` (e.g. 1.05 = 5%).
MtcmosSizing size_sleep_transistor(const tech::Process& process, double vdd,
                                   double logic_width_mult,
                                   double peak_current,
                                   double max_penalty = 1.05);

// Convenience: total NMOS width (unit multiples) and estimated peak
// current demand of a netlist block, for feeding size_sleep_transistor.
double netlist_nmos_width(const circuit::Netlist& netlist);
double netlist_peak_current(const circuit::Netlist& netlist,
                            const tech::Process& process, double vdd,
                            double simultaneous_fraction = 0.2);

}  // namespace lv::opt
