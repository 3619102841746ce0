// Retained copy of the pre-compiled-kernel event simulator — the
// binary-heap, interpreted-evaluation engine the compiled kernel
// (sim::SimGraph + EventQueue) replaced. It exists solely as the
// golden oracle for tests/sim_kernel_equivalence_test.cpp: the compiled
// kernel must reproduce this engine's ActivityStats bit-for-bit on every
// netlist, with every gate at unit delay. Kept deliberately close to the
// original source (per-event cell_info lookups, vector-per-evaluation,
// O(nets) finish_cycle) — do not "optimize" it; its slowness is its
// value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "circuit/cells.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"  // SimConfig
#include "util/error.hpp"

namespace lv::sim::testing {

class ReferenceSimulator {
 public:
  struct Stats {
    std::vector<std::uint64_t> transitions;
    std::vector<std::uint64_t> settled_changes;
    std::uint64_t cycles = 0;
  };

  explicit ReferenceSimulator(const circuit::Netlist& netlist,
                              SimConfig config = {})
      : netlist_{netlist},
        config_{config},
        values_(netlist.net_count(), circuit::Logic::x),
        scheduled_(netlist.net_count(), circuit::Logic::x),
        settled_(netlist.net_count(), circuit::Logic::x),
        flop_state_(netlist.instance_count(), circuit::Logic::x) {
    netlist.validate();
    stats_.transitions.assign(netlist.net_count(), 0);
    stats_.settled_changes.assign(netlist.net_count(), 0);
    for (circuit::InstanceId i = 0; i < netlist_.instance_count(); ++i) {
      const auto& inst = netlist_.instance(i);
      if (inst.kind == circuit::CellKind::tie0)
        schedule(inst.output, circuit::Logic::zero, 0);
      else if (inst.kind == circuit::CellKind::tie1)
        schedule(inst.output, circuit::Logic::one, 0);
    }
    drain_events();
    std::copy(values_.begin(), values_.end(), settled_.begin());
    stats_.transitions.assign(netlist.net_count(), 0);
    stats_.settled_changes.assign(netlist.net_count(), 0);
    stats_.cycles = 0;
  }

  void set_input(circuit::NetId net, circuit::Logic value) {
    const auto& n = netlist_.net(net);
    util::require(n.is_primary_input,
                  "ReferenceSimulator: set_input on non-input net");
    schedule(net, value, now_);
  }

  void set_bus(const circuit::Bus& bus, std::uint64_t value) {
    for (std::size_t i = 0; i < bus.size(); ++i)
      set_input(bus[i], circuit::from_bool((value >> i) & 1));
  }

  circuit::Logic value(circuit::NetId net) const { return values_.at(net); }

  bool read_bus(const circuit::Bus& bus, std::uint64_t& out) const {
    out = 0;
    for (std::size_t i = 0; i < bus.size(); ++i) {
      const circuit::Logic v = values_.at(bus[i]);
      if (!circuit::is_known(v)) return false;
      if (v == circuit::Logic::one) out |= (std::uint64_t{1} << i);
    }
    return true;
  }

  void settle() {
    drain_events();
    finish_cycle();
  }

  void clock_cycle() {
    std::vector<std::pair<circuit::InstanceId, circuit::Logic>> captures;
    for (const circuit::InstanceId i : netlist_.sequential_instances()) {
      const auto& inst = netlist_.instance(i);
      if (!inst.module.empty() && disabled_modules_.count(inst.module) != 0)
        continue;
      captures.emplace_back(i, values_[inst.inputs[0]]);
    }
    for (const auto& [id, d] : captures) {
      flop_state_[id] = d;
      const circuit::NetId q = netlist_.instance(id).output;
      if (values_[q] != d) schedule(q, d, now_ + 1);
    }
    settle();
  }

  void reset_flops(circuit::Logic value = circuit::Logic::zero) {
    for (const circuit::InstanceId i : netlist_.sequential_instances()) {
      flop_state_[i] = value;
      const circuit::NetId q = netlist_.instance(i).output;
      if (values_[q] != value) schedule(q, value, now_);
    }
    drain_events();
    std::copy(values_.begin(), values_.end(), settled_.begin());
  }

  void force_net(circuit::NetId net, circuit::Logic value) {
    schedule(net, value, now_);
    drain_events();
  }

  void set_module_clock_enable(const std::string& module, bool enabled) {
    if (enabled)
      disabled_modules_.erase(module);
    else
      disabled_modules_.insert(module);
  }

  const Stats& stats() const { return stats_; }

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // FIFO tie-break for same-time events
    circuit::NetId net;
    circuit::Logic value;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void schedule(circuit::NetId net, circuit::Logic value, std::uint64_t time) {
    scheduled_[net] = value;
    queue_.push(Event{time, seq_++, net, value});
  }

  void evaluate_instance(circuit::InstanceId id, std::uint64_t now) {
    const auto& inst = netlist_.instance(id);
    const auto& info = circuit::cell_info(inst.kind);
    if (info.sequential) return;
    std::vector<circuit::Logic> ins;
    ins.reserve(inst.inputs.size());
    for (const circuit::NetId in : inst.inputs) ins.push_back(values_[in]);
    const circuit::Logic out = circuit::evaluate_cell(inst.kind, ins);
    if (out == scheduled_[inst.output]) return;
    schedule(inst.output, out, now + 1);
  }

  void apply_event(const Event& event) {
    const circuit::Logic old = values_[event.net];
    if (old == event.value) return;
    values_[event.net] = event.value;
    if (circuit::is_known(old) && circuit::is_known(event.value))
      ++stats_.transitions[event.net];
    for (const circuit::InstanceId consumer : netlist_.fanout(event.net))
      evaluate_instance(consumer, event.time);
  }

  void drain_events() {
    std::uint64_t processed = 0;
    while (!queue_.empty()) {
      const Event e = queue_.top();
      queue_.pop();
      now_ = std::max(now_, e.time);
      apply_event(e);
      util::require(++processed <= config_.max_events_per_settle,
                    "ReferenceSimulator: event budget exceeded");
    }
  }

  void finish_cycle() {
    for (circuit::NetId n = 0; n < netlist_.net_count(); ++n) {
      const circuit::Logic before = settled_[n];
      const circuit::Logic after = values_[n];
      if (circuit::is_known(before) && circuit::is_known(after) &&
          before != after)
        ++stats_.settled_changes[n];
      settled_[n] = after;
    }
    ++stats_.cycles;
  }

  const circuit::Netlist& netlist_;
  SimConfig config_;
  std::vector<circuit::Logic> values_;
  std::vector<circuit::Logic> scheduled_;
  std::vector<circuit::Logic> settled_;
  std::vector<circuit::Logic> flop_state_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::unordered_set<std::string> disabled_modules_;
  Stats stats_;
};

}  // namespace lv::sim::testing
