#include "sim/bp_simulator.hpp"

#include <algorithm>
#include <bit>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "obs/metrics.hpp"
#include "sim/bus_pack.hpp"
#include "util/error.hpp"

namespace lv::sim {

namespace u = lv::util;
using circuit::InstanceId;
using circuit::Logic;
using circuit::NetId;

namespace {

// Word-kernel metrics, parallel to the scalar kernel's "sim.*" family.
// All Stability::exact; flushed behind one obs::enabled() check per
// drain/cycle, never touched by per-event code.
lv::obs::Counter& c_events() {
  static auto& c =
      lv::obs::Registry::global().counter("sim.word_events_processed");
  return c;
}
lv::obs::Counter& c_settles() {
  static auto& c =
      lv::obs::Registry::global().counter("sim.word_settle_calls");
  return c;
}
lv::obs::Counter& c_lane_cycles() {
  static auto& c = lv::obs::Registry::global().counter("sim.word_lane_cycles");
  return c;
}
lv::obs::Counter& c_transitions() {
  static auto& c = lv::obs::Registry::global().counter("sim.word_transitions");
  return c;
}
lv::obs::Counter& c_settled_changes() {
  static auto& c =
      lv::obs::Registry::global().counter("sim.word_settled_changes");
  return c;
}
lv::obs::Counter& c_direct_evals() {
  static auto& c = lv::obs::Registry::global().counter("sim.word_direct_evals");
  return c;
}
lv::obs::Counter& c_lut_lane_evals() {
  static auto& c =
      lv::obs::Registry::global().counter("sim.word_lut_lane_evals");
  return c;
}
lv::obs::Counter& c_wheel_wraps() {
  static auto& c = lv::obs::Registry::global().counter("sim.word_wheel_wraps");
  return c;
}
lv::obs::Gauge& g_queue_hwm() {
  static auto& g =
      lv::obs::Registry::global().gauge("sim.word_queue_depth_hwm");
  return g;
}

}  // namespace

BitParallelSimulator::BitParallelSimulator(const circuit::Netlist& netlist,
                                           SimConfig config, Options options)
    : BitParallelSimulator{SimGraph::compile(netlist), config, options} {}

BitParallelSimulator::BitParallelSimulator(
    std::shared_ptr<const SimGraph> graph, SimConfig config, Options options)
    : graph_{std::move(graph)},
      config_{config},
      options_{options},
      eval_{*graph_, options.force_lut_fallback},
      values_(graph_->net_count()),
      scheduled_(graph_->net_count()),
      settled_(graph_->net_count()),
      dirty_flag_(graph_->net_count(), 0),
      flop_state_(graph_->instance_count()),
      // Same horizon and pool-sizing rationale as the scalar kernel:
      // words don't change the event population shape, only their
      // payload width.
      queue_{1, 4 * graph_->net_count()},
      stats_{graph_->net_count()} {
  nodes_ = graph_->nodes().data();
  eval_offsets_ = graph_->eval_offsets().data();
  eval_list_ = graph_->eval_list().data();
  dirty_nets_.reserve(graph_->net_count());
  captures_.reserve(graph_->sequential_instances().size());
  if (options_.per_lane_stats) {
    lane_transitions_.assign(graph_->net_count() * kLaneCount, 0);
    lane_settled_changes_.assign(graph_->net_count() * kLaneCount, 0);
  }
  for (const auto& tie : graph_->tie_inits())
    schedule(tie.net, broadcast(tie.value), 0);
  drain_events();
  sync_settled();
  clear_stats();  // discard warm-up toggles
}

void BitParallelSimulator::set_input(NetId net, LogicW value) {
  if (!graph_->is_primary_input(net)) {
    const auto& n = netlist().net(net);  // throws for out-of-range nets
    throw u::Error("BitParallelSimulator: set_input on non-input net '" +
                   n.name + "'");
  }
  schedule(net, value, queue_.time());
}

void BitParallelSimulator::set_bus(const circuit::Bus& bus,
                                   std::span<const std::uint64_t> lane_values) {
  check_bus_width(bus, "BitParallelSimulator: set_bus");
  if (lane_values.size() > kLaneCount)
    throw u::Error("BitParallelSimulator: set_bus: more than 64 lane values");
  // Transpose: lane L of bus bit i <- bit i of lane_values[L]. Lanes
  // beyond the supplied span are driven to 0 (known), never left X.
  for (std::size_t i = 0; i < bus.size(); ++i) {
    LogicW w{0, 0};
    for (std::size_t lane = 0; lane < lane_values.size(); ++lane)
      if ((lane_values[lane] >> i) & 1) w.one |= (std::uint64_t{1} << lane);
    set_input(bus[i], w);
  }
}

void BitParallelSimulator::set_bus_broadcast(const circuit::Bus& bus,
                                             std::uint64_t value) {
  unpack_bus(bus, value, "BitParallelSimulator: set_bus_broadcast",
             [this](NetId net, Logic v) { set_input(net, broadcast(v)); });
}

LogicW BitParallelSimulator::value(NetId net) const {
  if (net >= values_.size())
    throw u::Error("BitParallelSimulator: net out of range");
  return values_[net];
}

bool BitParallelSimulator::read_bus(const circuit::Bus& bus, unsigned lane,
                                    std::uint64_t& out) const {
  if (lane >= kLaneCount)
    throw u::Error("BitParallelSimulator: read_bus: lane out of range");
  return pack_bus(
      bus, values_.size(), "BitParallelSimulator: read_bus",
      [this, lane](NetId id) { return lane_of(values_[id], lane); }, out);
}

void BitParallelSimulator::schedule(NetId net, LogicW value,
                                    std::uint64_t time) {
  scheduled_[net] = value;
  queue_.push(time, {net, value});
  if (queue_.size() > queue_hwm_) queue_hwm_ = queue_.size();
}

void BitParallelSimulator::evaluate_instance(InstanceId id,
                                             std::uint64_t now) {
  const LogicW out = eval_.evaluate(id, values_.data());
  const NetId net = nodes_[id].output;
  // Branch-free append, as in the scalar kernel: the candidate is kept
  // only if it changes the net's scheduled word in some lane.
  const bool changed = out != scheduled_[net];
  scheduled_[net] = out;
  queue_.append(now + 1, {net, out}, changed);
}

void BitParallelSimulator::count_transitions(NetId net,
                                             std::uint64_t lanes_changed) {
  const std::uint64_t counted = lanes_changed & active_lanes_;
  const auto n = static_cast<std::uint64_t>(std::popcount(counted));
  stats_.transitions_[net] += n;
  cycle_transitions_ += n;
  if (options_.per_lane_stats) {
    std::uint64_t m = counted;
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      ++lane_transitions_[net * kLaneCount + lane];
    }
  }
}

void BitParallelSimulator::apply_event(NetId net, LogicW value,
                                       std::uint64_t time) {
  const LogicW old = values_[net];
  if (old == value) return;
  values_[net] = value;
  // A lane transitions when it is known before and after and its value
  // bit flips — exactly the scalar kernel's is_known(old) && is_known(new)
  // && old != new test, on all lanes at once.
  count_transitions(net,
                    known_lanes(old) & known_lanes(value) &
                        (old.one ^ value.one));
  if (dirty_flag_[net] == 0) {
    dirty_flag_[net] = 1;
    dirty_nets_.push_back(net);
  }
  const std::uint32_t end = eval_offsets_[net + 1];
  for (std::uint32_t k = eval_offsets_[net]; k < end; ++k)
    evaluate_instance(eval_list_[k], time);
}

std::uint64_t BitParallelSimulator::drain_events() {
  std::uint64_t processed = 0;
  const std::uint64_t budget = config_.max_events_per_settle;
  queue_.drain([&](const WordEvent& e, std::uint64_t now) {
    apply_event(e.net, e.value, now);
    queue_hwm_ = std::max<std::uint64_t>(queue_hwm_, queue_.size());
    if (++processed > budget)
      throw check::InputError(
          check::codes::sim_event_budget,
          "BitParallelSimulator: event budget exceeded: more than " +
              std::to_string(budget) + " events in one settle (oscillation?)");
  });
  const WordEvaluator::Counts evals = eval_.take_counts();
  if (obs::enabled()) {
    c_events().add(processed);
    c_direct_evals().add(evals.direct);
    c_lut_lane_evals().add(evals.lut_lanes);
    c_wheel_wraps().add(queue_.wraps() - wraps_flushed_);
    g_queue_hwm().update_max(static_cast<double>(queue_hwm_));
  }
  wraps_flushed_ = queue_.wraps();
  queue_hwm_ = 0;
  return processed;
}

void BitParallelSimulator::finish_cycle() {
  std::uint64_t changed_total = 0;
  for (const NetId n : dirty_nets_) {
    const LogicW before = settled_[n];
    const LogicW after = values_[n];
    const std::uint64_t changed = known_lanes(before) & known_lanes(after) &
                                  (before.one ^ after.one) & active_lanes_;
    const auto c = static_cast<std::uint64_t>(std::popcount(changed));
    stats_.settled_changes_[n] += c;
    changed_total += c;
    if (options_.per_lane_stats) {
      std::uint64_t m = changed;
      while (m != 0) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        ++lane_settled_changes_[n * kLaneCount + lane];
      }
    }
    settled_[n] = after;
    dirty_flag_[n] = 0;
  }
  dirty_nets_.clear();
  // Each active lane completes one cycle; alpha/toggle_rate therefore
  // remain per-lane-cycle rates, directly comparable to a scalar run.
  const auto active = static_cast<std::uint64_t>(std::popcount(active_lanes_));
  stats_.cycles_ += active;
  if (options_.per_lane_stats) {
    std::uint64_t m = active_lanes_;
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      ++lane_cycles_[lane];
    }
  }
  if (obs::enabled()) {
    c_lane_cycles().add(active);
    c_transitions().add(cycle_transitions_);
    c_settled_changes().add(changed_total);
  }
  cycle_transitions_ = 0;
}

void BitParallelSimulator::sync_settled() {
  std::copy(values_.begin(), values_.end(), settled_.begin());
  for (const NetId n : dirty_nets_) dirty_flag_[n] = 0;
  dirty_nets_.clear();
}

void BitParallelSimulator::settle() {
  drain_events();
  if (obs::enabled()) c_settles().add(1);
  finish_cycle();
}

void BitParallelSimulator::clock_cycle() {
  captures_.clear();
  const auto& netlist = graph_->netlist();
  for (const InstanceId i : graph_->sequential_instances()) {
    const auto& inst = netlist.instance(i);
    if (!inst.module.empty() && disabled_modules_.count(inst.module) != 0)
      continue;  // gated clock: flop holds state, no internal switching
    captures_.emplace_back(i, values_[inst.inputs[0]]);
  }
  for (const auto& [id, d] : captures_) {
    flop_state_[id] = d;
    const NetId q = nodes_[id].output;
    if (values_[q] != d) schedule(q, d, queue_.time() + 1);
  }
  settle();
}

void BitParallelSimulator::reset_flops(Logic value) {
  const LogicW w = broadcast(value);
  for (const InstanceId i : graph_->sequential_instances()) {
    flop_state_[i] = w;
    const NetId q = nodes_[i].output;
    if (values_[q] != w) schedule(q, w, queue_.time());
  }
  drain_events();
  sync_settled();
}

void BitParallelSimulator::force_net(NetId net, LogicW value) {
  if (net >= values_.size())
    throw u::Error("force_net: net out of range");
  schedule(net, value, queue_.time());
  drain_events();
}

void BitParallelSimulator::set_module_clock_enable(const std::string& module,
                                                   bool enabled) {
  if (enabled)
    disabled_modules_.erase(module);
  else
    disabled_modules_.insert(module);
}

bool BitParallelSimulator::module_clock_enabled(
    const std::string& module) const {
  return disabled_modules_.count(module) == 0;
}

ActivityStats BitParallelSimulator::lane_stats(unsigned lane) const {
  if (!options_.per_lane_stats)
    throw u::Error(
        "BitParallelSimulator: lane_stats requires Options::per_lane_stats");
  if (lane >= kLaneCount)
    throw u::Error("BitParallelSimulator: lane_stats: lane out of range");
  ActivityStats out{values_.size()};
  out.set_cycles(lane_cycles_[lane]);
  for (NetId n = 0; n < values_.size(); ++n)
    out.set_net_counts(n, lane_transitions_[n * kLaneCount + lane],
                       lane_settled_changes_[n * kLaneCount + lane]);
  return out;
}

void BitParallelSimulator::clear_stats() {
  stats_ = ActivityStats{values_.size()};
  if (options_.per_lane_stats) {
    std::fill(lane_transitions_.begin(), lane_transitions_.end(), 0);
    std::fill(lane_settled_changes_.begin(), lane_settled_changes_.end(), 0);
  }
  std::fill(std::begin(lane_cycles_), std::end(lane_cycles_), 0);
  cycle_transitions_ = 0;
  sync_settled();
}

}  // namespace lv::sim
