#include "sim/fault.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "exec/parallel.hpp"
#include "sim/bp_simulator.hpp"
#include "sim/bus_pack.hpp"
#include "sim/word_logic.hpp"
#include "util/error.hpp"

namespace lv::sim {

using circuit::Logic;
using circuit::NetId;

FaultySimulator::FaultySimulator(const circuit::Netlist& netlist, Fault fault,
                                 SimConfig config)
    : FaultySimulator{SimGraph::compile(netlist), fault, config} {}

FaultySimulator::FaultySimulator(std::shared_ptr<const SimGraph> graph,
                                 Fault fault, SimConfig config)
    : sim_{std::move(graph), config}, fault_{fault} {
  lv::util::require(fault.net < sim_.netlist().net_count(),
                    "FaultySimulator: fault net out of range");
  lv::util::require(circuit::is_known(fault.stuck_at),
                    "FaultySimulator: stuck value must be 0 or 1");
  reassert_fault();
}

void FaultySimulator::reassert_fault() {
  if (sim_.value(fault_.net) != fault_.stuck_at)
    sim_.force_net(fault_.net, fault_.stuck_at);
}

void FaultySimulator::set_input(NetId net, Logic value) {
  // Driving the faulty net itself is pointless but harmless.
  sim_.set_input(net, value);
}

void FaultySimulator::set_bus(const circuit::Bus& bus, std::uint64_t value) {
  sim_.set_bus(bus, value);
}

void FaultySimulator::settle() {
  // Let the stimulus propagate, then override the faulty net and
  // re-propagate its cone until quiescent (serial fault simulation).
  sim_.settle();
  reassert_fault();
}

Logic FaultySimulator::value(NetId net) const {
  if (net == fault_.net) return fault_.stuck_at;
  return sim_.value(net);
}

bool FaultySimulator::read_bus(const circuit::Bus& bus,
                               std::uint64_t& out) const {
  return pack_bus(
      bus, sim_.netlist().net_count(), "FaultySimulator: read_bus",
      [this](NetId id) { return value(id); }, out);
}

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

// Fault lanes per word-kernel batch: lane 0 carries the good machine.
constexpr std::size_t kFaultLanes = kLaneCount - 1;

// Scalar kernel: one FaultySimulator per fault, early exit at the first
// detecting vector (whose index is the fault's verdict).
std::vector<std::size_t> first_detections_scalar(
    const std::shared_ptr<const SimGraph>& graph,
    const std::vector<Fault>& faults, const circuit::Bus& inputs,
    const circuit::Bus& outputs, const std::vector<std::uint64_t>& vectors) {
  // Good-machine responses once.
  std::vector<std::uint64_t> golden;
  golden.reserve(vectors.size());
  {
    Simulator good{graph};
    for (const auto v : vectors) {
      good.set_bus(inputs, v);
      good.settle();
      std::uint64_t out = 0;
      lv::util::require(good.read_bus(outputs, out),
                        "fault_coverage: X at outputs of the good machine");
      golden.push_back(out);
    }
  }
  // Embarrassingly parallel: each fault machine is a fresh
  // FaultySimulator over the shared immutable SimGraph. Per-fault cost
  // is the most skewed distribution in the toolkit (an early-detected
  // leaf fault costs a couple of vectors, an undetectable one costs all
  // of them); the guided cursor's shrinking claims keep the expensive
  // tail spread over every worker.
  return exec::parallel_map<std::size_t>(
      faults.size(),
      [&](std::size_t k) {
        FaultySimulator bad{graph, faults[k]};
        for (std::size_t i = 0; i < vectors.size(); ++i) {
          bad.set_bus(inputs, vectors[i]);
          bad.settle();
          std::uint64_t out = 0;
          if (!bad.read_bus(outputs, out) || out != golden[i]) return i;
        }
        return kNeverDetected;
      });
}

// Word kernel: batches of (1 good + up to 63 fault) machines share one
// 64-lane replay. Each batch is independent, so batches parallelize the
// same way scalar fault machines do; within a batch the per-lane
// bit-exactness of the word kernel makes lane L's trajectory identical
// to a scalar FaultySimulator run of that lane's fault.
//
// Batches are re-packed between rounds of geometrically growing vector
// windows. fault_coverage treats the netlist combinationally, so a
// lane's response to vector i is a function of (vector i, its fault)
// alone — survivors of one round can be condensed into fewer, denser
// batches that resume at the next vector with first-detection indices
// unchanged. Without re-packing, one stubborn fault drags its whole
// batch through the entire vector set and the word kernel loses the
// scalar kernel's per-fault early exit.
std::vector<std::size_t> first_detections_word(
    const std::shared_ptr<const SimGraph>& graph,
    const std::vector<Fault>& faults, const circuit::Bus& inputs,
    const circuit::Bus& outputs, const std::vector<std::uint64_t>& vectors) {
  std::vector<std::size_t> first(faults.size(), kNeverDetected);
  // Undetected fault indices, kept in fault order so batch packing (and
  // with it every lane assignment) is deterministic at any thread count.
  std::vector<std::size_t> survivors(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) survivors[k] = k;
  std::size_t begin = 0;
  std::size_t window = 16;
  while (!survivors.empty() && begin < vectors.size()) {
    const std::size_t end = std::min(vectors.size(), begin + window);
    const std::size_t batches =
        (survivors.size() + kFaultLanes - 1) / kFaultLanes;
    // Per batch: first-detection index within this round's window, or
    // kNeverDetected for lanes that survive the round.
    const auto round = exec::parallel_map<std::vector<std::size_t>>(
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
          BitParallelSimulator sim{graph};
          const auto reassert = [&] {
            for (std::size_t f = 0; f < count; ++f) {
              const Fault& fault = faults[survivors[base + f]];
              const unsigned lane = static_cast<unsigned>(f + 1);
              if (lane_of(sim.value(fault.net), lane) != fault.stuck_at)
                sim.force_lanes(fault.net, std::uint64_t{1} << lane,
                                fault.stuck_at);
            }
          };
          reassert();
          std::vector<std::size_t> batch_first(count, kNeverDetected);
          std::size_t remaining = count;
          for (std::size_t i = begin; i < end && remaining > 0; ++i) {
            sim.set_bus_broadcast(inputs, vectors[i]);
            sim.settle();
            reassert();
            // Detection mask: a lane detects when any output bit is X
            // or disagrees with the good machine (lane 0).
            std::uint64_t detected = 0;
            for (std::size_t j = 0; j < outputs.size(); ++j) {
              const LogicW w = sim.value(outputs[j]);
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
              if (batch_first[lane - 1] == kNeverDetected) {
                batch_first[lane - 1] = i;
                --remaining;
              }
            }
          }
          return batch_first;
        });
    // Serial fold: record detections, condense survivors for the next
    // (larger) window.
    std::vector<std::size_t> next;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t base = b * kFaultLanes;
      for (std::size_t f = 0; f < round[b].size(); ++f) {
        if (round[b][f] == kNeverDetected)
          next.push_back(survivors[base + f]);
        else
          first[survivors[base + f]] = round[b][f];
      }
    }
    survivors = std::move(next);
    begin = end;
    window *= 4;
  }
  return first;
}

}  // namespace

CoverageResult fault_coverage(const circuit::Netlist& netlist,
                              const std::vector<std::uint64_t>& vectors,
                              FaultKernel kernel) {
  lv::util::require(netlist.sequential_instances().empty(),
                    "fault_coverage: combinational netlists only");
  const circuit::Bus inputs = netlist.primary_inputs();
  const circuit::Bus outputs = netlist.primary_outputs();
  lv::util::require(inputs.size() <= 64,
                    "fault_coverage: more than 64 inputs");

  // One compiled graph serves the good machine and every fault machine.
  const auto graph = SimGraph::compile(netlist);
  const auto faults = enumerate_faults(netlist);

  const std::vector<std::size_t> first =
      kernel == FaultKernel::word
          ? first_detections_word(graph, faults, inputs, outputs, vectors)
          : first_detections_scalar(graph, faults, inputs, outputs, vectors);

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
