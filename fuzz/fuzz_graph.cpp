// Fuzz target for the compiled-graph decoder (lv-graph/2). The first
// input byte picks one of three generated netlists — a ripple-carry
// adder, an array multiplier and a clocked multiply-accumulate — and the
// rest is a graph blob decoded against it. A rejected blob must throw
// util::Error. A blob that decodes must run one settle and one clock
// cycle on the event kernel, and one word evaluation of every
// combinational instance in topological order, without touching memory
// it does not own; an event budget or a forged input bitmap may end the
// event run with util::Error.
//
// Seeds (corpus/graph) are the selector byte followed by
// encode_graph(SimGraph(netlist)) of the netlist it selects, so each
// starts from a blob that decodes.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "sim/graph_io.hpp"
#include "sim/simulator.hpp"
#include "sim/word_eval.hpp"
#include "util/error.hpp"

namespace {

constexpr std::size_t kMaxInput = 1 << 16;
// Small enough that a forged oscillation ends quickly.
constexpr lv::sim::SimConfig kConfig{1 << 16};

const lv::circuit::Netlist& harness_netlist(std::uint8_t selector) {
  static const lv::circuit::Netlist nets[3] = {
      [] {
        lv::circuit::Netlist nl;
        lv::circuit::build_ripple_carry_adder(nl, 4);
        return nl;
      }(),
      [] {
        lv::circuit::Netlist nl;
        lv::circuit::build_array_multiplier(nl, 4);
        return nl;
      }(),
      [] {
        lv::circuit::Netlist nl;
        lv::circuit::build_pipelined_mac(nl, 4, "mac");
        return nl;
      }(),
  };
  return nets[selector % 3];
}

void run_events(const std::shared_ptr<const lv::sim::SimGraph>& graph,
                const lv::circuit::Netlist& nl) {
  lv::sim::Simulator sim{graph, kConfig};
  const auto& inputs = nl.primary_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    sim.set_input(inputs[i], i % 3 == 0 ? lv::circuit::Logic::zero
                                        : lv::circuit::Logic::one);
  sim.settle();
  sim.clock_cycle();
}

// One levelized pass, as the fault kernel runs its good machine: every
// net starts X, the inputs carry a lane pattern, and each combinational
// instance is evaluated once through its (possibly forged) kind and
// pins.
void run_words(const lv::sim::SimGraph& graph,
               const lv::circuit::Netlist& nl) {
  std::vector<lv::sim::LogicW> values(graph.net_count());
  const auto& inputs = nl.primary_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    values[inputs[i]] = {(~std::uint64_t{0} << 7) >> (i % 5), 0};
  lv::sim::WordEvaluator eval{graph};
  for (const lv::circuit::InstanceId id : nl.topo_order())
    if (graph.nodes()[id].sequential == 0)
      values[graph.nodes()[id].output] = eval.evaluate(id, values.data());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > kMaxInput) return 0;
  const auto& nl = harness_netlist(data[0]);
  const std::string_view blob{reinterpret_cast<const char*>(data) + 1,
                              size - 1};
  try {
    const auto graph = lv::sim::decode_graph(nl, blob);
    run_words(*graph, nl);
    run_events(graph, nl);
  } catch (const lv::util::Error&) {
  }
  return 0;
}
