// Compiled simulation graph — the netlist pre-lowered, once, into the
// flat arrays the event kernel actually touches per event.
//
// The interpreted kernel paid per event for work that is invariant per
// netlist: cell_info() lookups, fanout vector-of-vectors chasing, and a
// heap-allocated input-value vector per gate evaluation. SimGraph hoists
// all of it to compile time:
//
//   * CSR fanout restricted to *combinational* consumers (flops never
//     react to data-input events, so they are filtered out of the
//     event-propagation graph entirely instead of being skipped by a
//     per-event branch);
//   * CSR input-pin arrays (flat NetId storage, one span per instance);
//   * truth-table LUT evaluation for every combinational cell: each
//     library cell has at most 4 inputs, and three-valued inputs pack
//     into 2-bit codes (Logic's own integer values), so a gate
//     evaluation is a shift/or gather plus one 256-byte table lookup.
//     The tables are *built* through circuit::evaluate_cell, which is
//     what makes the LUT path bit-identical to the interpreted kernel by
//     construction. They are per-process constants (luts()), so a
//     compile, a decode or an incremental recompile copies none of them,
//     and the 64-lane word evaluation (word_eval.hpp) needs nothing but
//     each node's kind.
//
// Every gate has unit delay: an evaluation at tick t schedules its
// output at t + 1, so glitches come from path-depth imbalance alone
// (Section 5.3, Figs. 8-9).
//
// A graph is immutable after compile() and safe to share across threads
// and simulators — the fault campaign compiles one graph and grades
// every fault against it instead of re-validating and re-deriving per
// fault.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.hpp"

namespace lv::sim {

namespace detail {
struct GraphAccess;
}

struct SimConfig {
  // Safety valve: maximum events processed per settle() call.
  std::uint64_t max_events_per_settle = 50'000'000;
};

class SimGraph {
 public:
  // Inputs to a LUT-evaluated cell pack into 2 bits each (Logic::zero=0,
  // Logic::one=1, Logic::x=2), so 4 inputs index a 256-entry table.
  // Every combinational library cell fits (luts() enforces it).
  static constexpr int kMaxLutInputs = 4;
  using Lut = std::array<circuit::Logic, 256>;

  // The event queue packs net ids into 30 bits (sim/event_queue.hpp),
  // so a graph holds fewer than 2^30 nets.
  static constexpr std::size_t kMaxNets = std::size_t{1} << 30;
  // Throws a coded InputError (net.too_large) unless `net_count` fits.
  static void require_net_capacity(std::size_t net_count);

  // Per-instance evaluation record (hot: keep it small and flat).
  struct Node {
    circuit::NetId output = circuit::kInvalidNet;
    std::uint32_t in_begin = 0;  // index into input_nets()
    std::uint8_t in_count = 0;   // the cell's arity
    std::uint8_t kind = 0;       // circuit::CellKind; also its index in luts()
    std::uint8_t sequential = 0;
  };

  struct TieInit {
    circuit::NetId net = circuit::kInvalidNet;
    circuit::Logic value = circuit::Logic::x;
  };

  // Validates the netlist and lowers it. The netlist must outlive the
  // graph (the simulator still reads names/modules through it on cold
  // paths).
  explicit SimGraph(const circuit::Netlist& netlist);

  // Convenience for the common shared-ownership pattern.
  static std::shared_ptr<const SimGraph> compile(
      const circuit::Netlist& netlist) {
    return std::make_shared<const SimGraph>(netlist);
  }

  const circuit::Netlist& netlist() const { return netlist_; }
  std::size_t net_count() const { return net_count_; }
  std::size_t instance_count() const { return nodes_.size(); }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<circuit::NetId>& input_nets() const { return input_nets_; }

  // Event-propagation CSR: combinational consumers of net n live at
  // eval_list()[eval_offsets()[n] .. eval_offsets()[n+1]).
  const std::vector<std::uint32_t>& eval_offsets() const {
    return eval_offsets_;
  }
  const std::vector<circuit::InstanceId>& eval_list() const {
    return eval_list_;
  }

  // One table per CellKind (sequential kinds' tables are never read).
  // The bank is per-process constant data, built once and shared by
  // every graph.
  static const std::vector<Lut>& luts();

  const std::vector<circuit::InstanceId>& sequential_instances() const {
    return sequential_;
  }
  const std::vector<TieInit>& tie_inits() const { return tie_inits_; }

  // True when `net` is a primary input (flat bitmap; lets set_input stay
  // off the Net-struct cold path).
  bool is_primary_input(circuit::NetId net) const {
    return net < net_count_ && net_is_input_[net] != 0;
  }

  SimGraph(const SimGraph&) = delete;
  SimGraph& operator=(const SimGraph&) = delete;

 private:
  // Deserialization / incremental-recompile backdoor (graph_access.hpp):
  // constructs an *empty* graph over `netlist` whose arrays are then
  // installed directly, bypassing validate() and the compile pass. Only
  // detail::GraphAccess can reach it, and only from blobs whose content
  // hash already vouched for the netlist.
  struct RawTag {};
  SimGraph(RawTag, const circuit::Netlist& netlist) : netlist_{netlist} {}
  friend struct detail::GraphAccess;

  const circuit::Netlist& netlist_;
  std::size_t net_count_ = 0;
  std::vector<Node> nodes_;
  std::vector<circuit::NetId> input_nets_;
  std::vector<std::uint32_t> eval_offsets_;
  std::vector<circuit::InstanceId> eval_list_;
  std::vector<circuit::InstanceId> sequential_;
  std::vector<TieInit> tie_inits_;
  std::vector<std::uint8_t> net_is_input_;
};

}  // namespace lv::sim
