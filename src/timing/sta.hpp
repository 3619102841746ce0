// Static timing analysis over a Netlist: arrival times, critical path, and
// per-instance slack against a target clock period. The slack view feeds
// the dual-VT assignment optimizer (non-critical gates can take the
// high-VT, low-leakage flavor without hurting the cycle time).
//
// Per-instance VT flavor is supported through an optional per-instance
// vt_shift vector, so the same STA engine times both uniform-VT and
// mixed-VT netlists.
//
// The engine evaluates through an analysis::AnalysisContext: loads come
// from the context's coefficient cache and drive currents from its
// memoized alpha-power parameters, so V_DD sweeps retarget the shared
// context instead of rebuilding a LoadModel per point. The classic
// (netlist, process, vdd) constructor builds a private context. The
// forward arrival pass and the endpoint set are timing/arrival.hpp's,
// shared with the dual-VT greedy.
#pragma once

#include <memory>
#include <vector>

#include "analysis/analysis_context.hpp"
#include "timing/delay_model.hpp"

namespace lv::timing {

struct StaResult {
  // Arrival time at each net [s] (primary inputs and flop outputs at 0).
  std::vector<double> net_arrival;
  // Delay of each instance [s].
  std::vector<double> instance_delay;
  // Latest arrival over all timing endpoints (primary outputs and flop
  // D-inputs) [s] — the minimum feasible clock period for the data path.
  double critical_delay = 0.0;
  // Instances on (one) critical path, source to endpoint.
  std::vector<circuit::InstanceId> critical_path;

  // Slack of each instance against `clock_period`: how much this
  // instance's output arrival can grow before some endpoint through it
  // violates the period. Computed via required-time propagation.
  std::vector<double> instance_slack;
};

class Sta {
 public:
  Sta(const circuit::Netlist& netlist, const tech::Process& process,
      double vdd);

  // Shared-context form: times the netlist at `ctx`'s *current* operating
  // point (vdd), tracking later set_operating_point calls. The context
  // must outlive the Sta.
  explicit Sta(const analysis::AnalysisContext& ctx);

  // Uniform VT (all instances at the process's nominal threshold).
  StaResult run(double clock_period) const;

  // Mixed VT: vt_shift[i] is added to instance i's devices. Vector must
  // have instance_count entries.
  StaResult run(double clock_period,
                const std::vector<double>& instance_vt_shift) const;

  // Mixed VT + per-instance sizing: `instance_sizes[i]` scales instance
  // i's drive strength and input capacitance (a fresh sized LoadModel is
  // built per call). Both vectors need instance_count entries. Sizing
  // loops that mutate one instance at a time should keep their own
  // LoadModel up to date with set_instance_size and call run_with_loads.
  StaResult run(double clock_period,
                const std::vector<double>& instance_vt_shift,
                const std::vector<double>& instance_sizes) const;

  // Like the sized run, but against caller-maintained sized loads
  // (`loads.instance_sizes()` supplies the drive scaling). Avoids the
  // per-call LoadModel reconstruction in incremental optimizers.
  StaResult run_with_loads(double clock_period,
                           const std::vector<double>& instance_vt_shift,
                           const circuit::LoadModel& loads) const;

 private:
  StaResult run_impl(double clock_period,
                     const std::vector<double>& instance_vt_shift,
                     const std::vector<double>* instance_sizes,
                     const circuit::LoadModel& loads) const;

  // Owned when built via the classic constructor, null when borrowing.
  std::shared_ptr<analysis::AnalysisContext> owned_;
  const analysis::AnalysisContext* ctx_;
};

}  // namespace lv::timing
