#include "sim/simulator.hpp"

#include <algorithm>

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

static_assert(SimGraph::kMaxNets == std::size_t{ScalarEvent::kNetMask} + 1,
              "every graph net id must fit a ScalarEvent");

namespace {

// Global simulator metrics (lv::obs). Every counter here is
// Stability::exact: totals are sums over per-simulator work that does
// not depend on how a campaign was partitioned across threads. The
// per-event code never touches these — it bumps plain member
// accumulators, and drain_events()/finish_cycle() flush them behind a
// single obs::enabled() check per drain/cycle.
lv::obs::Counter& c_events() {
  static auto& c = lv::obs::Registry::global().counter("sim.events_processed");
  return c;
}
lv::obs::Counter& c_settles() {
  static auto& c = lv::obs::Registry::global().counter("sim.settle_calls");
  return c;
}
lv::obs::Counter& c_cycles() {
  static auto& c = lv::obs::Registry::global().counter("sim.cycles");
  return c;
}
lv::obs::Counter& c_transitions() {
  static auto& c = lv::obs::Registry::global().counter("sim.transitions");
  return c;
}
lv::obs::Counter& c_settled_changes() {
  static auto& c = lv::obs::Registry::global().counter("sim.settled_changes");
  return c;
}
lv::obs::Counter& c_glitches() {
  static auto& c = lv::obs::Registry::global().counter("sim.glitches");
  return c;
}
lv::obs::Counter& c_lut_evals() {
  static auto& c = lv::obs::Registry::global().counter("sim.lut_evals");
  return c;
}
lv::obs::Gauge& g_queue_hwm() {
  static auto& g = lv::obs::Registry::global().gauge("sim.queue_depth_hwm");
  return g;
}
lv::obs::Hist& h_events_per_settle() {
  static auto& h = lv::obs::Registry::global().histogram(
      "sim.events_per_settle", 0.0, 256.0, 32);
  return h;
}

}  // namespace

void ActivityStats::check_net(NetId net) const {
  if (net >= transitions_.size())
    throw u::Error("ActivityStats: net out of range");
}

double ActivityStats::alpha(NetId net) const {
  check_net(net);
  if (cycles_ == 0) return 0.0;
  return static_cast<double>(transitions_[net]) / 2.0 /
         static_cast<double>(cycles_);
}

double ActivityStats::toggle_rate(NetId net) const {
  check_net(net);
  if (cycles_ == 0) return 0.0;
  return static_cast<double>(transitions_[net]) /
         static_cast<double>(cycles_);
}

double ActivityStats::glitch_fraction(NetId net) const {
  check_net(net);
  const auto toggles = transitions_[net];
  if (toggles == 0) return 0.0;
  const auto necessary = settled_changes_[net];
  return static_cast<double>(toggles - std::min(toggles, necessary)) /
         static_cast<double>(toggles);
}

std::uint64_t ActivityStats::total_transitions() const {
  std::uint64_t total = 0;
  for (const auto t : transitions_) total += t;
  return total;
}

ActivityStats& ActivityStats::operator+=(const ActivityStats& other) {
  u::require(other.transitions_.size() == transitions_.size(),
             "ActivityStats: merging stats of different netlists");
  for (std::size_t n = 0; n < transitions_.size(); ++n) {
    transitions_[n] += other.transitions_[n];
    settled_changes_[n] += other.settled_changes_[n];
  }
  cycles_ += other.cycles_;
  return *this;
}

Simulator::Simulator(const circuit::Netlist& netlist, SimConfig config)
    : Simulator{SimGraph::compile(netlist), config} {}

Simulator::Simulator(std::shared_ptr<const SimGraph> graph, SimConfig config)
    : graph_{std::move(graph)},
      config_{config},
      values_(graph_->net_count(), Logic::x),
      scheduled_(graph_->net_count(), Logic::x),
      settled_(graph_->net_count(), Logic::x),
      // One spare entry: the branch-free append writes past the list.
      dirty_nets_(graph_->net_count() + 1),
      dirty_flag_(graph_->net_count(), 0),
      flop_state_(graph_->instance_count(), Logic::x),
      // Pool hint: a net whose driver re-evaluates several times in one
      // tick holds one pending entry per changed result. 4x net count
      // covers most netlists from the start; a glitch storm past it adds
      // 16-page blocks once, and the warmed-up queue then recycles them
      // without allocating.
      queue_{4 * graph_->net_count()},
      stats_{graph_->net_count()} {
  nodes_ = graph_->nodes().data();
  in_nets_ = graph_->input_nets().data();
  eval_offsets_ = graph_->eval_offsets().data();
  eval_list_ = graph_->eval_list().data();
  luts_ = SimGraph::luts().data();
  captures_.reserve(graph_->sequential_instances().size());
  // Tie cells establish constants immediately.
  for (const auto& tie : graph_->tie_inits())
    schedule(tie.net, tie.value);
  drain_events();
  sync_settled();
  stats_ = ActivityStats{graph_->net_count()};  // discard warm-up toggles
}

void Simulator::set_input(NetId net, Logic value) {
  if (!graph_->is_primary_input(net)) {
    const auto& n = netlist().net(net);  // throws for out-of-range nets
    throw u::Error("Simulator: set_input on non-input net '" + n.name + "'");
  }
  schedule(net, value);
}

void Simulator::set_bus(const circuit::Bus& bus, std::uint64_t value) {
  unpack_bus(bus, value, "Simulator: set_bus",
             [this](NetId net, Logic v) { set_input(net, v); });
}

circuit::Logic Simulator::value(NetId net) const {
  if (net >= values_.size()) throw u::Error("Simulator: net out of range");
  return values_[net];
}

bool Simulator::read_bus(const circuit::Bus& bus, std::uint64_t& out) const {
  return pack_bus(bus, values_.size(), "Simulator: read_bus",
                  [this](NetId id) { return values_[id]; }, out);
}

void Simulator::schedule(NetId net, Logic value) {
  scheduled_[net] = value;
  queue_.push({net, value});
  if (queue_.size() > queue_hwm_) queue_hwm_ = queue_.size();
}

// evaluate, evaluate_instance and apply_event are `inline` so the whole
// per-event path compiles into drain_events' loop.
inline Logic Simulator::evaluate(const SimGraph::Node& node) const {
  // Pack the 2-bit input codes into a table index: one shift/or per
  // pin, no allocation, no cell_info lookup.
  const NetId* ins = in_nets_ + node.in_begin;
  unsigned idx = 0;
  for (unsigned k = 0; k < node.in_count; ++k)
    idx |= static_cast<unsigned>(values_[ins[k]]) << (2u * k);
  return luts_[node.kind][idx];
}

inline void Simulator::evaluate_instance(InstanceId id) {
  const SimGraph::Node& node = nodes_[id];
  const Logic out = evaluate(node);
  // The candidate always lands at the queue's tail, one tick ahead; it
  // is kept only if it changes what the net has scheduled (no
  // data-dependent branch).
  const bool changed = out != scheduled_[node.output];
  scheduled_[node.output] = out;
  queue_.append({node.output, out}, changed);
}

inline void Simulator::apply_event(NetId net, Logic value) {
  const Logic old = values_[net];
  if (old == value) return;
  values_[net] = value;
  if (circuit::is_known(old) && circuit::is_known(value)) {
    ++stats_.transitions_[net];
    ++cycle_transitions_;
  }
  // Branch-free: the entry past the list always takes the net, and
  // the list only grows on the net's first change this cycle.
  dirty_nets_[dirty_count_] = net;
  dirty_count_ += dirty_flag_[net] ^ 1u;
  dirty_flag_[net] = 1;
  const std::uint32_t begin = eval_offsets_[net];
  const std::uint32_t end = eval_offsets_[net + 1];
  evals_ += end - begin;
  for (std::uint32_t k = begin; k < end; ++k)
    evaluate_instance(eval_list_[k]);
}

std::uint64_t Simulator::drain_events() {
  std::uint64_t processed = 0;
  const std::uint64_t budget = config_.max_events_per_settle;
  queue_.drain([&](EventQueue::Entry e) {
    apply_event(e.net(), e.value());
    // An event only appends, so the queue is deepest at its end: this
    // max equals the one taken after every single append.
    queue_hwm_ = std::max<std::uint64_t>(queue_hwm_, queue_.size());
    if (++processed > budget)
      throw check::InputError(
          check::codes::sim_event_budget,
          "Simulator: event budget exceeded: more than " +
              std::to_string(budget) + " events in one settle (oscillation?)");
  });
  if (obs::enabled()) {
    c_events().add(processed);
    c_lut_evals().add(evals_);
    g_queue_hwm().update_max(static_cast<double>(queue_hwm_));
  }
  evals_ = 0;
  queue_hwm_ = 0;
  return processed;
}

void Simulator::finish_cycle() {
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < dirty_count_; ++i) {
    const NetId n = dirty_nets_[i];
    const Logic before = settled_[n];
    const Logic after = values_[n];
    if (circuit::is_known(before) && circuit::is_known(after) &&
        before != after) {
      ++stats_.settled_changes_[n];
      ++changed;
    }
    settled_[n] = after;
    dirty_flag_[n] = 0;
  }
  dirty_count_ = 0;
  ++stats_.cycles_;
  if (obs::enabled()) {
    c_cycles().add(1);
    c_transitions().add(cycle_transitions_);
    c_settled_changes().add(changed);
    // Aggregate glitch proxy: toggles this cycle beyond the one settled
    // change each flipped net needs (Figs. 8-9's spurious transitions).
    c_glitches().add(cycle_transitions_ -
                     std::min(cycle_transitions_, changed));
  }
  cycle_transitions_ = 0;
}

void Simulator::sync_settled() {
  std::copy(values_.begin(), values_.end(), settled_.begin());
  for (std::size_t i = 0; i < dirty_count_; ++i)
    dirty_flag_[dirty_nets_[i]] = 0;
  dirty_count_ = 0;
}

void Simulator::settle() {
  const std::uint64_t processed = drain_events();
  if (obs::enabled()) {
    c_settles().add(1);
    h_events_per_settle().add(static_cast<double>(processed));
  }
  finish_cycle();
}

void Simulator::clock_cycle() {
  // Phase 1: all enabled flops sample D simultaneously (master-slave
  // semantics — captured values are the pre-edge ones).
  captures_.clear();
  const auto& netlist = graph_->netlist();
  for (const InstanceId i : graph_->sequential_instances()) {
    const auto& inst = netlist.instance(i);
    if (!inst.module.empty() &&
        disabled_modules_.count(inst.module) != 0)
      continue;  // gated clock: flop holds state, no internal switching
    captures_.emplace_back(i, values_[inst.inputs[0]]);
  }
  // Phase 2: launch new Q values. They queue behind any pending input
  // change, one tick later (see event_queue.hpp).
  for (const auto& [id, d] : captures_) {
    flop_state_[id] = d;
    const NetId q = nodes_[id].output;
    if (values_[q] != d) schedule(q, d);
  }
  settle();
}

void Simulator::reset_flops(Logic value) {
  for (const InstanceId i : graph_->sequential_instances()) {
    flop_state_[i] = value;
    const NetId q = nodes_[i].output;
    if (values_[q] != value) schedule(q, value);
  }
  drain_events();
  sync_settled();
}

void Simulator::seat(const circuit::Bus& bus, std::uint64_t value) {
  u::require(queue_.empty() && dirty_count_ == 0,
             "Simulator: seat needs a quiescent simulator");
  u::require(graph_->sequential_instances().empty(),
             "Simulator: seat needs a combinational netlist");
  const auto place = [this](NetId net, Logic v) {
    values_[net] = v;
    scheduled_[net] = v;
    settled_[net] = v;
  };
  unpack_bus(bus, value, "Simulator: seat", [&](NetId net, Logic v) {
    if (!graph_->is_primary_input(net)) {
      const auto& n = netlist().net(net);  // throws for out-of-range nets
      throw u::Error("Simulator: seat on non-input net '" + n.name + "'");
    }
    place(net, v);
  });
  for (const InstanceId id : netlist().topo_order())
    place(nodes_[id].output, evaluate(nodes_[id]));
}

void Simulator::force_net(NetId net, Logic value) {
  if (net >= values_.size()) throw u::Error("force_net: net out of range");
  schedule(net, value);
  drain_events();
}

void Simulator::set_module_clock_enable(const std::string& module,
                                        bool enabled) {
  if (enabled)
    disabled_modules_.erase(module);
  else
    disabled_modules_.insert(module);
}

void Simulator::clear_stats() {
  stats_ = ActivityStats{values_.size()};
  sync_settled();
}

}  // namespace lv::sim
