// Event-driven gate-level logic simulator — the paper's "switch-level
// simulator" substitute (Section 5.3 uses IRSIM to extract node transition
// activity; "our experiences with switch-level simulators shows that the
// estimated switched capacitance ... fits measured results within 10%").
//
// Every gate has unit delay, so unequal path depths produce the
// spurious intermediate transitions (glitches) of real static CMOS —
// Figs. 8-9's histograms explicitly include them. Per-net statistics
// separate total transitions from settled-value changes, making the
// glitch component directly observable (the settled changes are the
// zero-delay activity).
//
// The engine is *compiled*: a sim::SimGraph lowers the netlist once into
// CSR fanout/input arrays and truth-table LUTs (see sim_graph.hpp), and
// a paged FIFO replaces the binary heap (see event_queue.hpp): with unit
// delay, appending at the tail consumes events in the historical
// (time, sequence) order exactly. ActivityStats is therefore
// bit-identical to the interpreted kernel on every netlist (pinned by
// tests/sim_kernel_equivalence_test.cpp against a retained copy of the
// interpreted engine).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_graph.hpp"

namespace lv::sim {

// Per-net activity accounting. "Transitions" are 0<->1 toggles including
// glitches; "settled changes" compare quiescent values between cycles.
// alpha (the paper's node transition activity) = transitions / cycles.
class ActivityStats {
 public:
  explicit ActivityStats(std::size_t net_count)
      : transitions_(net_count, 0), settled_changes_(net_count, 0) {}

  std::uint64_t transitions(circuit::NetId net) const {
    check_net(net);
    return transitions_[net];
  }
  std::uint64_t settled_changes(circuit::NetId net) const {
    check_net(net);
    return settled_changes_[net];
  }
  std::uint64_t cycles() const { return cycles_; }

  // Node transition activity alpha_{0->1}: power-consuming (rising)
  // transitions per cycle, i.e. toggles/2 / cycles.
  double alpha(circuit::NetId net) const;
  // All toggles per cycle (both edges).
  double toggle_rate(circuit::NetId net) const;
  // Fraction of this net's toggles that were glitches (not reflected in
  // the settled value).
  double glitch_fraction(circuit::NetId net) const;

  std::uint64_t total_transitions() const;

  // Adds another run's counts (same netlist) into this one: the merge
  // step of a replay split across simulators.
  ActivityStats& operator+=(const ActivityStats& other);

  // Bulk-load counters (used by the activity text format in
  // sim/activity_io.hpp to rehydrate stats recorded in a previous run).
  void set_cycles(std::uint64_t cycles) { cycles_ = cycles; }
  void set_net_counts(circuit::NetId net, std::uint64_t transitions,
                      std::uint64_t settled_changes) {
    check_net(net);
    transitions_[net] = transitions;
    settled_changes_[net] = settled_changes;
  }

 private:
  friend class Simulator;
  void check_net(circuit::NetId net) const;
  std::vector<std::uint64_t> transitions_;
  std::vector<std::uint64_t> settled_changes_;
  std::uint64_t cycles_ = 0;
};

class Simulator {
 public:
  // Compiles a private SimGraph for `netlist` (which must outlive the
  // simulator).
  explicit Simulator(const circuit::Netlist& netlist, SimConfig config = {});
  // Shares a pre-compiled graph — the cheap form when many simulators run
  // over one netlist (sweeps, server sessions).
  explicit Simulator(std::shared_ptr<const SimGraph> graph,
                     SimConfig config = {});
  // Copies share the graph and continue independently from the same
  // state (the activity replay gives each worker a copy of one primed
  // simulator).

  const circuit::Netlist& netlist() const { return graph_->netlist(); }
  const SimGraph& graph() const { return *graph_; }

  // ---- stimulus ----
  void set_input(circuit::NetId net, circuit::Logic value);
  // Drives a bus (LSB first) from an integer.
  void set_bus(const circuit::Bus& bus, std::uint64_t value);

  // ---- observation ----
  circuit::Logic value(circuit::NetId net) const;
  // Packs a bus into an integer; returns false if any bit is X.
  bool read_bus(const circuit::Bus& bus, std::uint64_t& out) const;

  // ---- execution ----
  // Propagates pending input changes to quiescence and closes out one
  // "cycle" for statistics purposes.
  void settle();
  // One synchronous cycle: flops in enabled modules capture D, then the
  // combinational cloud settles. Counts as one cycle of statistics.
  void clock_cycle();
  // Forces all flop outputs (and their fanout cones) to a known state.
  void reset_flops(circuit::Logic value = circuit::Logic::zero);

  // Seats a combinational simulator directly on the quiescent state that
  // settling `bus` = `value` reaches (other primary inputs keep their
  // present values): one levelized pass over the netlist's topological
  // order through the same evaluation tables, with no events, no
  // statistics and no obs traffic. A combinational netlist's settled
  // state is a function of its inputs alone, so a seated simulator's
  // next settle() is event-for-event the one a serial replay would run.
  // Requires a quiescent simulator (no pending events, cycle closed).
  void seat(const circuit::Bus& bus, std::uint64_t value);

  // Forces one net to a value and propagates its cone to quiescence
  // (fault injection / debug). The net keeps its driver, so a subsequent
  // driver re-evaluation can overwrite the forced value — a fault harness
  // re-forces after every settle. Does not count as a
  // statistics cycle.
  void force_net(circuit::NetId net, circuit::Logic value);

  // ---- clock gating (paper Fig. 7: "gated clocks ... shut down the
  // unit to eliminate switching") ----
  void set_module_clock_enable(const std::string& module, bool enabled);

  // ---- statistics ----
  const ActivityStats& stats() const { return stats_; }
  void clear_stats();

 private:
  void schedule(circuit::NetId net, circuit::Logic value);
  // The instance's output for the present net values (uncounted).
  circuit::Logic evaluate(const SimGraph::Node& node) const;
  void evaluate_instance(circuit::InstanceId id);
  void apply_event(circuit::NetId net, circuit::Logic value);
  // Returns the number of events processed (observability).
  std::uint64_t drain_events();
  void finish_cycle();
  // Re-syncs settled_ to values_ wholesale and clears the dirty-net list
  // (construction, reset_flops, clear_stats).
  void sync_settled();

  std::shared_ptr<const SimGraph> graph_;
  SimConfig config_;
  // Hot views resolved once from the graph (per-event code touches only
  // these flat arrays).
  const SimGraph::Node* nodes_ = nullptr;
  const circuit::NetId* in_nets_ = nullptr;
  const std::uint32_t* eval_offsets_ = nullptr;
  const circuit::InstanceId* eval_list_ = nullptr;
  const SimGraph::Lut* luts_ = nullptr;

  std::vector<circuit::Logic> values_;
  // Last value scheduled per net. Gate evaluation compares against this,
  // not the currently-visible value — otherwise an input change that
  // re-confirms the present output would fail to cancel a stale pending
  // event and the net would settle to the wrong value.
  std::vector<circuit::Logic> scheduled_;
  std::vector<circuit::Logic> settled_;
  // Nets whose visible value changed since the last finish_cycle()/sync
  // are dirty_nets_[0, dirty_count_); finish_cycle() walks only these
  // (O(nets touched), not O(net_count)).
  std::vector<circuit::NetId> dirty_nets_;
  std::size_t dirty_count_ = 0;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<circuit::Logic> flop_state_;
  EventQueue queue_;
  std::unordered_set<std::string> disabled_modules_;
  ActivityStats stats_;
  // Reused scratch buffers (no per-event or per-cycle heap allocation in
  // steady state — pinned by tests/sim_alloc_test.cpp).
  std::vector<std::pair<circuit::InstanceId, circuit::Logic>> captures_;
  // Observability accumulators. Maintained unconditionally (cheap plain
  // increments) and flushed to the lv::obs registry once per drain/cycle
  // — the obs::enabled() check is hoisted out of the per-event path.
  std::uint64_t queue_hwm_ = 0;
  std::uint64_t cycle_transitions_ = 0;
  // Gate evaluations (bumped by the fanout count).
  std::uint64_t evals_ = 0;
};

}  // namespace lv::sim
