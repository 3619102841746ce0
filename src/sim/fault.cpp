#include "sim/fault.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "sim/bus_pack.hpp"
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

// Fault lanes per batch: lane 0 carries the good machine.
constexpr std::size_t kFaultLanes = kLaneCount - 1;

// Gate-word evaluations (batches x vectors x gates, summed over rounds):
// Stability::exact, since batch packing is fixed by fault order and the
// count is folded serially.
lv::obs::Counter& c_word_evals() {
  static auto& c = lv::obs::Registry::global().counter("sim.fault_word_evals");
  return c;
}

// The lanes of one net held at a constant by one batch's faults.
struct StuckLanes {
  std::uint64_t held = 0;  // lanes stuck at either value
  std::uint64_t ones = 0;  // the subset stuck at 1
};

constexpr LogicW apply_stuck(LogicW w, StuckLanes s) {
  return {(w.one & ~s.held) | s.ones, w.x & ~s.held};
}

struct BatchResult {
  // Per fault lane: first-detection index within the round's window, or
  // kNeverDetected for lanes that survive the round.
  std::vector<std::size_t> first;
  std::uint64_t word_evals = 0;
};

// Batches of (1 good + up to 63 fault) machines share one 64-lane word
// per net. Each vector is one levelized pass: primary inputs broadcast
// to every lane, then every instance evaluated once in topological
// order, its output word overridden in the faulty lanes before any
// consumer reads it. Batches are independent, so they run in parallel.
//
// Batches are re-packed between rounds of geometrically growing vector
// windows. fault_coverage treats the netlist combinationally, so a
// lane's response to vector i is a function of (vector i, its fault)
// alone — survivors of one round can be condensed into fewer, denser
// batches that resume at the next vector with first-detection indices
// unchanged. Without re-packing, one stubborn fault would drag its
// whole batch through the entire vector set.
std::vector<std::size_t> first_detections_word(
    const SimGraph& graph, const std::vector<Fault>& faults,
    const circuit::Bus& inputs, const circuit::Bus& outputs,
    const std::vector<std::uint64_t>& vectors) {
  // Resolved before the fan-out: the netlist builds its caches lazily.
  const auto& order = graph.netlist().topo_order();
  const SimGraph::Node* nodes = graph.nodes().data();
  std::vector<std::size_t> first(faults.size(), kNeverDetected);
  // Undetected fault indices, kept in fault order so batch packing (and
  // with it every lane assignment) is deterministic at any thread count.
  std::vector<std::size_t> survivors(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) survivors[k] = k;
  std::uint64_t word_evals = 0;
  std::size_t begin = 0;
  std::size_t window = 16;
  while (!survivors.empty() && begin < vectors.size()) {
    const std::size_t end = std::min(vectors.size(), begin + window);
    const std::size_t batches =
        (survivors.size() + kFaultLanes - 1) / kFaultLanes;
    const auto round = exec::parallel_map<BatchResult>(
        batches,
        [&](std::size_t b) {
          const std::size_t base = b * kFaultLanes;
          const std::size_t count =
              std::min(kFaultLanes, survivors.size() - base);
          // Lanes 0..count inclusive are live: lane 0 = good machine,
          // lane 1+f = faults[survivors[base + f]].
          const std::uint64_t live =
              count + 1 >= kLaneCount
                  ? kAllLanes
                  : (std::uint64_t{1} << (count + 1)) - 1;
          WordEvaluator eval{graph};
          std::vector<LogicW> values(graph.net_count());  // all lanes X
          std::vector<StuckLanes> stuck(graph.net_count());
          for (std::size_t f = 0; f < count; ++f) {
            const Fault& fault = faults[survivors[base + f]];
            const std::uint64_t lane = std::uint64_t{1} << (f + 1);
            stuck[fault.net].held |= lane;
            if (fault.stuck_at == Logic::one) stuck[fault.net].ones |= lane;
          }
          BatchResult out{std::vector<std::size_t>(count, kNeverDetected), 0};
          std::size_t remaining = count;
          for (std::size_t i = begin; i < end && remaining > 0; ++i) {
            unpack_bus(inputs, vectors[i], "fault_coverage",
                       [&](NetId net, Logic v) { values[net] = broadcast(v); });
            for (const circuit::InstanceId id : order) {
              const NetId net = nodes[id].output;
              values[net] =
                  apply_stuck(eval.evaluate(id, values.data()), stuck[net]);
            }
            out.word_evals += order.size();
            // Detection mask: a lane detects when any output bit is X
            // or disagrees with the good machine (lane 0).
            std::uint64_t detected = 0;
            for (const NetId net : outputs) {
              const LogicW w = values[net];
              if (w.x & 1)
                throw lv::util::Error(
                    "fault_coverage: X at outputs of the good machine");
              const std::uint64_t good = (w.one & 1) ? kAllLanes : 0;
              detected |= w.x | ((w.one ^ good) & ~w.x);
            }
            detected &= live & ~std::uint64_t{1};
            while (detected != 0) {
              const unsigned lane = static_cast<unsigned>(
                  std::countr_zero(detected));
              detected &= detected - 1;
              if (out.first[lane - 1] == kNeverDetected) {
                out.first[lane - 1] = i;
                --remaining;
              }
            }
          }
          return out;
        });
    // Serial fold: record detections, condense survivors for the next
    // (larger) window.
    std::vector<std::size_t> next;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t base = b * kFaultLanes;
      for (std::size_t f = 0; f < round[b].first.size(); ++f) {
        if (round[b].first[f] == kNeverDetected)
          next.push_back(survivors[base + f]);
        else
          first[survivors[base + f]] = round[b].first[f];
      }
      word_evals += round[b].word_evals;
    }
    survivors = std::move(next);
    begin = end;
    window *= 4;
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
