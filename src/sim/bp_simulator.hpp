// Bit-parallel compiled simulation: 64 independent stimulus lanes per
// event-kernel pass.
//
// BitParallelSimulator is the word-level sibling of sim::Simulator. Every
// net holds a LogicW (two bitplanes, one lane per bit; see word_logic.hpp)
// and every evaluation, event, and statistics update operates on all 64
// lanes at once. The kernel shares the scalar engine's machinery — the
// same SimGraph CSR arrays and unit delay, the same calendar-queue scheduler
// (instantiated over WordEvent), the same dirty-net cycle accounting —
// and therefore the same (time, sequence) event order.
//
// Per-lane bit-exactness. A word event is scheduled when the 64-lane
// output differs from the 64-lane scheduled value in *any* lane, so a
// lane can ride along on events it did not cause. That is harmless:
// for the rider lane the applied value equals the value it already had
// (or already had scheduled), so its visible trajectory, transition
// counts, and settled-change counts are exactly what the scalar kernel
// produces for that lane's stimulus alone. This is pinned per lane
// against both the scalar compiled kernel and the interpreted oracle by
// tests/sim_bitparallel_test.cpp and sim_kernel_equivalence_test.cpp.
//
// Statistics are lane-sliced: the aggregate ActivityStats counts lane
// transitions summed over the active-lane mask (cycles() advances by
// popcount(active) per settle, so alpha/toggle_rate stay per-lane-cycle
// rates directly comparable to a scalar run), and Options::per_lane_stats
// additionally keeps full per-lane counters so lane_stats(L) reproduces
// the scalar Simulator's ActivityStats for lane L exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/sim_graph.hpp"
#include "sim/simulator.hpp"
#include "sim/word_eval.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

struct BitParallelOptions {
  // Keep per-lane per-net transition counters (64x the counter memory)
  // so lane_stats() can slice out one lane's ActivityStats. Off by
  // default; equivalence tests turn it on.
  bool per_lane_stats = false;
  // Route every combinational cell through the per-lane LUT fallback
  // instead of the verified direct word operators (differential
  // testing of the two word evaluation paths).
  bool force_lut_fallback = false;
};

class BitParallelSimulator {
 public:
  using Options = BitParallelOptions;

  explicit BitParallelSimulator(const circuit::Netlist& netlist,
                                SimConfig config = {}, Options options = {});
  explicit BitParallelSimulator(std::shared_ptr<const SimGraph> graph,
                                SimConfig config = {}, Options options = {});

  const circuit::Netlist& netlist() const { return graph_->netlist(); }
  const SimGraph& graph() const { return *graph_; }
  std::shared_ptr<const SimGraph> shared_graph() const { return graph_; }

  // ---- stimulus ----
  // Drives all 64 lanes of a primary input at once.
  void set_input(circuit::NetId net, LogicW value);
  // Scalar convenience: broadcasts one value to every lane.
  void set_input(circuit::NetId net, circuit::Logic value) {
    set_input(net, broadcast(value));
  }
  // Drives a bus (LSB first) with one integer per lane: lane L of bus
  // bit i takes bit i of lane_values[L]. Lanes beyond lane_values.size()
  // are driven to 0. At most 64 lane values.
  void set_bus(const circuit::Bus& bus,
               std::span<const std::uint64_t> lane_values);
  // Drives every lane of the bus with the same integer.
  void set_bus_broadcast(const circuit::Bus& bus, std::uint64_t value);

  // ---- observation ----
  LogicW value(circuit::NetId net) const;
  circuit::Logic value(circuit::NetId net, unsigned lane) const {
    return lane_of(value(net), lane);
  }
  // Packs lane `lane` of a bus into an integer; false if any bit is X.
  bool read_bus(const circuit::Bus& bus, unsigned lane,
                std::uint64_t& out) const;

  // ---- execution (same contracts as Simulator, all lanes at once) ----
  void settle();
  void clock_cycle();
  void reset_flops(circuit::Logic value = circuit::Logic::zero);
  // Forces a net on all 64 lanes and propagates to quiescence.
  void force_net(circuit::NetId net, LogicW value);
  void force_net(circuit::NetId net, circuit::Logic value) {
    force_net(net, broadcast(value));
  }

  // ---- clock gating ----
  void set_module_clock_enable(const std::string& module, bool enabled);
  bool module_clock_enabled(const std::string& module) const;

  // ---- statistics ----
  // Lanes included in activity accounting. Transitions in inactive lanes
  // are not counted and inactive lanes do not accrue cycles, so partial
  // batches (fewer stimuli than lanes) keep exact per-lane-cycle rates.
  // Does not affect simulation values, only accounting.
  void set_active_lanes(std::uint64_t mask) { active_lanes_ = mask; }
  std::uint64_t active_lanes() const { return active_lanes_; }

  // Aggregate over active lanes; cycles() = sum of active lane-cycles.
  const ActivityStats& stats() const { return stats_; }
  // Per-lane slice (requires Options::per_lane_stats).
  ActivityStats lane_stats(unsigned lane) const;
  void clear_stats();

 private:
  void schedule(circuit::NetId net, LogicW value, std::uint64_t time);
  void evaluate_instance(circuit::InstanceId id, std::uint64_t now);
  void apply_event(circuit::NetId net, LogicW value, std::uint64_t time);
  std::uint64_t drain_events();
  void finish_cycle();
  void sync_settled();
  void count_transitions(circuit::NetId net, std::uint64_t lanes_changed);

  std::shared_ptr<const SimGraph> graph_;
  SimConfig config_;
  Options options_;
  // Hot views resolved once from the graph (see Simulator).
  const SimGraph::Node* nodes_ = nullptr;
  const std::uint32_t* eval_offsets_ = nullptr;
  const circuit::InstanceId* eval_list_ = nullptr;
  // Gate evaluation (direct word operators or the per-lane fallback).
  WordEvaluator eval_;

  std::vector<LogicW> values_;
  std::vector<LogicW> scheduled_;
  std::vector<LogicW> settled_;
  std::vector<circuit::NetId> dirty_nets_;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<LogicW> flop_state_;
  WordCalendarQueue queue_;
  std::unordered_set<std::string> disabled_modules_;
  std::uint64_t active_lanes_ = kAllLanes;
  ActivityStats stats_;
  // Per-lane counters, net-major ([net * 64 + lane]) so the scatter for
  // one event's changed-lane bits stays within one net's rows. Empty
  // unless Options::per_lane_stats.
  std::vector<std::uint64_t> lane_transitions_;
  std::vector<std::uint64_t> lane_settled_changes_;
  std::uint64_t lane_cycles_[kLaneCount] = {};
  // Reused scratch buffer (steady state stays allocation-free, same
  // contract as the scalar kernel; pinned by tests/sim_alloc_test.cpp).
  std::vector<std::pair<circuit::InstanceId, LogicW>> captures_;
  // Observability accumulators (flushed behind one obs::enabled() check
  // per drain/cycle, like the scalar kernel).
  std::uint64_t queue_hwm_ = 0;
  std::uint64_t cycle_transitions_ = 0;
  std::uint64_t wraps_flushed_ = 0;
};

}  // namespace lv::sim
