#include "sim/fault.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "circuit/generators.hpp"  // circuit::Bus
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_graph.hpp"
#include "sim/word_eval.hpp"
#include "sim/word_logic.hpp"
#include "util/error.hpp"

namespace lv::sim {

using circuit::Logic;
using circuit::NetId;

std::vector<Fault> enumerate_faults(const circuit::Netlist& netlist) {
  std::vector<Fault> out;
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    const auto& net = netlist.net(n);
    if (net.is_primary_input || net.is_clock) continue;
    out.push_back(Fault{n, Logic::zero});
    out.push_back(Fault{n, Logic::one});
  }
  return out;
}

namespace {

constexpr std::size_t kNeverDetected = std::numeric_limits<std::size_t>::max();

// A block whose live faults x gates is below this grades inline: the
// pool hand-off, and on the first pooled block the thread start-up, cost
// more than spreading its propagation saves. Measured with interleaved
// --threads 1/4 spawns (EXPERIMENTS.md, "Fixed cost of a short run"):
// ks32's first block (4.7e5) is faster inline, mul10's (6.3e5) pooled.
constexpr std::size_t kPoolWork = 500'000;

// Gate-word evaluations: one good-machine pass per block plus every gate
// a fault's propagation re-evaluated. Stability::exact, since each
// fault's propagation depends only on (fault, block) and the count is
// folded serially.
lv::obs::Counter& c_word_evals() {
  static auto& c = lv::obs::Registry::global().counter("sim.fault_word_evals");
  return c;
}

// Lanes where two words disagree (either bitplane).
constexpr std::uint64_t differs(LogicW a, LogicW b) {
  return (a.one ^ b.one) | (a.x ^ b.x);
}

// The read-only view of one block that every fault is graded against.
struct Block {
  const SimGraph& graph;
  const std::vector<circuit::InstanceId>& order;  // topological order
  const std::vector<std::uint32_t>& position;     // instance -> order index
  const std::vector<std::uint8_t>& is_output;     // per net
  const std::vector<LogicW>& good;                // good machine, per net
  std::uint64_t valid;                            // lanes holding a vector
};

// One worker's scratch: a private copy of the good words that a fault
// overwrites on the nets it disturbs (restored before the next fault),
// and a bitset over topological positions marking gates with a changed
// input.
struct Propagator {
  explicit Propagator(const Block& block)
      : eval{block.graph},
        values{block.good},
        pending((block.order.size() + 63) / 64, 0) {}

  WordEvaluator eval;
  std::vector<LogicW> values;
  std::vector<std::uint64_t> pending;
  std::vector<NetId> touched;
};

struct FaultOutcome {
  std::uint64_t detected = 0;  // lanes whose vector exposes the fault
  std::uint64_t evals = 0;     // gates re-evaluated
};

// Injects `fault` into every lane of the block and propagates it event-
// wise in topological order: only gates with a disturbed input are
// evaluated, each at most once. Lanes above the lowest detection so far
// cannot change the fault's first detection, so they drop out of the
// change test as soon as an output differs, and propagation stops once
// no lane is left (a detection in lane 0).
FaultOutcome propagate(const Block& b, Propagator& w, const Fault& fault) {
  FaultOutcome out;
  const LogicW stuck = broadcast(fault.stuck_at);
  std::uint64_t lanes = differs(stuck, w.values[fault.net]) & b.valid;
  if (lanes == 0) return out;  // never activated in this block

  const SimGraph::Node* nodes = b.graph.nodes().data();
  const std::uint32_t* fan_begin = b.graph.eval_offsets().data();
  const circuit::InstanceId* fan = b.graph.eval_list().data();
  std::uint64_t* pending = w.pending.data();
  // Pending gates lie in words [word, end); empty when word >= end.
  std::size_t word = w.pending.size();
  std::size_t end = 0;
  const auto disturb = [&](NetId net, LogicW value, std::uint64_t diff) {
    w.values[net] = value;
    w.touched.push_back(net);
    if (b.is_output[net]) {
      out.detected |= diff;
      lanes &= (out.detected & -out.detected) - 1;
    }
    for (std::uint32_t k = fan_begin[net]; k < fan_begin[net + 1]; ++k) {
      const std::uint32_t p = b.position[fan[k]];
      pending[p / 64] |= std::uint64_t{1} << (p % 64);
      word = std::min<std::size_t>(word, p / 64);
      end = std::max<std::size_t>(end, p / 64 + 1);
    }
  };
  disturb(fault.net, stuck, lanes);
  while (word < end) {
    const std::uint64_t bits = pending[word];
    if (bits == 0) {
      ++word;
      continue;
    }
    if (lanes == 0) break;
    pending[word] = bits & (bits - 1);
    const circuit::InstanceId id =
        b.order[word * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
    const NetId net = nodes[id].output;
    const LogicW value = w.eval.evaluate(id, w.values.data());
    ++out.evals;
    const std::uint64_t diff = differs(value, w.values[net]) & lanes;
    if (diff != 0) disturb(net, value, diff);
  }
  if (word < end) std::fill(pending + word, pending + end, 0);
  for (const NetId net : w.touched) w.values[net] = b.good[net];
  w.touched.clear();
  return out;
}

// Parallel-pattern single-fault propagation. The 64 lanes of a word
// carry 64 consecutive vectors: one levelized pass computes the good
// machine for the block, then every surviving fault is propagated on
// its own against it. The netlist is treated combinationally, so a
// fault's response to vector i depends on (vector i, fault) alone and a
// fault's first detection is its first detecting block's lowest
// detecting lane. Detected faults drop out before the next block.
std::vector<std::size_t> first_detections_word(
    const SimGraph& graph, const std::vector<Fault>& faults,
    const circuit::Bus& inputs, const circuit::Bus& outputs,
    const std::vector<std::uint64_t>& vectors) {
  const auto& order = graph.netlist().topo_order();
  std::vector<std::uint32_t> position(graph.instance_count());
  for (std::size_t p = 0; p < order.size(); ++p)
    position[order[p]] = static_cast<std::uint32_t>(p);
  std::vector<std::uint8_t> is_output(graph.net_count(), 0);
  for (const NetId net : outputs) is_output[net] = 1;

  std::vector<std::size_t> first(faults.size(), kNeverDetected);
  // Undetected fault indices, in fault order.
  std::vector<std::size_t> live(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) live[k] = k;
  WordEvaluator eval{graph};
  std::vector<LogicW> good(graph.net_count());  // undriven nets stay X
  std::uint64_t word_evals = 0;
  for (std::size_t begin = 0; begin < vectors.size() && !live.empty();
       begin += kLaneCount) {
    const std::size_t count = std::min<std::size_t>(kLaneCount,
                                                    vectors.size() - begin);
    const std::uint64_t valid =
        count == kLaneCount ? kAllLanes : (std::uint64_t{1} << count) - 1;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::uint64_t ones = 0;
      for (std::size_t lane = 0; lane < count; ++lane)
        ones |= ((vectors[begin + lane] >> i) & 1) << lane;
      good[inputs[i]] = {ones, 0};
    }
    for (const circuit::InstanceId id : order)
      good[graph.nodes()[id].output] = eval.evaluate(id, good.data());
    word_evals += order.size();
    for (const NetId net : outputs)
      if (good[net].x & valid)
        throw lv::util::Error(
            "fault_coverage: X at outputs of the good machine");

    const Block block{graph, order, position, is_output, good, valid};
    // Index i grades live[i * span, (i + 1) * span): one index per fault
    // when the block pays for the pool, else one index for them all, so
    // the block runs inline on this thread.
    const std::size_t span =
        live.size() * order.size() < kPoolWork ? live.size() : 1;
    std::vector<FaultOutcome> outcomes(live.size());
    exec::parallel_for_stateful(
        (live.size() + span - 1) / span, [&] { return Propagator{block}; },
        [&](Propagator& w, std::size_t i) {
          const std::size_t end = std::min(live.size(), (i + 1) * span);
          for (std::size_t k = i * span; k < end; ++k)
            outcomes[k] = propagate(block, w, faults[live[k]]);
        });
    // Serial fold in fault order.
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      word_evals += outcomes[k].evals;
      if (outcomes[k].detected != 0)
        first[live[k]] =
            begin + static_cast<std::size_t>(
                        std::countr_zero(outcomes[k].detected));
      else
        live[kept++] = live[k];
    }
    live.resize(kept);
  }
  if (obs::enabled()) c_word_evals().add(word_evals);
  return first;
}

}  // namespace

CoverageResult fault_coverage(const circuit::Netlist& netlist,
                              const std::vector<std::uint64_t>& vectors) {
  lv::util::require(netlist.sequential_instances().empty(),
                    "fault_coverage: combinational netlists only");
  const circuit::Bus inputs = netlist.primary_inputs();
  const circuit::Bus outputs = netlist.primary_outputs();
  lv::util::require(inputs.size() <= 64,
                    "fault_coverage: more than 64 inputs");

  // One compiled graph serves the good machine and every fault machine.
  const SimGraph graph{netlist};
  const auto faults = enumerate_faults(netlist);
  const std::vector<std::size_t> first =
      first_detections_word(graph, faults, inputs, outputs, vectors);

  // Serial fold in fault order — identical result at any thread count.
  CoverageResult result;
  result.total_faults = faults.size();
  result.first_detections.assign(vectors.size(), 0);
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (first[k] == kNeverDetected) {
      result.undetected.push_back(faults[k]);
    } else {
      ++result.detected;
      ++result.first_detections[first[k]];
    }
  }
  result.coverage =
      result.total_faults == 0
          ? 1.0
          : static_cast<double>(result.detected) /
                static_cast<double>(result.total_faults);
  return result;
}

}  // namespace lv::sim
