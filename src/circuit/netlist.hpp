// Gate-level netlist graph.
//
// A Netlist is a DAG of cell instances over single-driver nets, with
// primary inputs/outputs and an optional clock net. Instances carry a
// *module tag* (e.g. "adder", "multiplier") — the granularity at which the
// paper's burst-mode analysis gates clocks and switches thresholds
// ("functional units, or blocks, share a common V_T", Section 5.2).
//
// Sharing. The derived structure — consumer lists, combinational order,
// cycle members and flop list — is built together on first use, under a
// lock the netlist owns, and read without a lock afterwards. Any number of
// threads may therefore call the const queries on one netlist at once,
// including the first call. Every mutator drops the structure; mutating a
// netlist while another thread reads it is a data race and out of
// contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "circuit/cells.hpp"

namespace lv::circuit {

using NetId = std::uint32_t;
using InstanceId = std::uint32_t;

inline constexpr NetId kInvalidNet = ~NetId{0};

struct Net {
  std::string name;
  bool is_primary_input = false;
  bool is_primary_output = false;
  bool is_clock = false;
  InstanceId driver = ~InstanceId{0};  // invalid when input/undriven
};

struct Instance {
  std::string name;
  CellKind kind = CellKind::inv;
  std::vector<NetId> inputs;
  NetId output = kInvalidNet;
  std::string module;  // functional-block tag ("" = top)
};

class Netlist {
 public:
  // ---- construction ----
  NetId add_net(const std::string& name);
  NetId add_input(const std::string& name);
  NetId add_clock(const std::string& name);
  void mark_output(NetId net);
  // Adds a gate driving a fresh net named `<name>_o` (or driving `out`
  // when given). Returns the output net.
  NetId add_gate(CellKind kind, const std::string& name,
                 const std::vector<NetId>& inputs,
                 const std::string& module = "");
  NetId add_gate_onto(CellKind kind, const std::string& name,
                      const std::vector<NetId>& inputs, NetId out,
                      const std::string& module = "");

  // ---- queries ----
  std::size_t net_count() const { return nets_.size(); }
  std::size_t instance_count() const { return instances_.size(); }
  const Net& net(NetId id) const { return nets_.at(id); }
  const Instance& instance(InstanceId id) const { return instances_.at(id); }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Instance>& instances() const { return instances_; }
  NetId find_net(std::string_view name) const;  // kInvalidNet if absent

  const std::vector<NetId>& primary_inputs() const { return inputs_; }
  const std::vector<NetId>& primary_outputs() const { return outputs_; }
  NetId clock_net() const { return clock_; }  // kInvalidNet when none

  // Instances whose inputs include `net` (consumers), one entry per pin,
  // in ascending instance order. A view into the CSR fanout arrays below.
  // Never throws on a cyclic netlist.
  std::span<const InstanceId> fanout(NetId net) const;
  // Number of gate input pins attached to `net`.
  std::size_t fanout_pins(NetId net) const { return fanout(net).size(); }

  // CSR (compressed sparse row) form of the consumer graph: the
  // consumers of net n are fanout_list()[fanout_offsets()[n] ..
  // fanout_offsets()[n+1]). Flat contiguous storage so compiled engines
  // (sim::SimGraph) can walk fanout without pointer chasing.
  const std::vector<std::uint32_t>& fanout_offsets() const {
    return structure().fanout_offsets;
  }
  const std::vector<InstanceId>& fanout_list() const {
    return structure().fanout_list;
  }

  // Topological order of *combinational* instances (sequential cells are
  // treated as sources/sinks). Throws check::InputError (net.cycle) on a
  // combinational cycle.
  const std::vector<InstanceId>& topo_order() const;

  // Combinational instances no topological order can place — those on a
  // combinational cycle and those fed from one — in ascending instance
  // order. Empty when the netlist is acyclic.
  const std::vector<InstanceId>& cyclic_instances() const {
    return structure().cyclic;
  }

  // Per-instance logic level (inputs/flop outputs are level 0).
  std::vector<int> levelize() const;

  // All sequential instances, in ascending instance order.
  const std::vector<InstanceId>& sequential_instances() const {
    return structure().flops;
  }

  // Distinct module tags in insertion order ("" excluded).
  std::vector<std::string> modules() const;
  // Gate count per cell kind.
  std::unordered_map<std::string, std::size_t> kind_histogram() const;

  // Structural checks: every instance input exists and is driven or is a
  // primary input/clock; single driver per net; input counts match the
  // catalog. Throws with a description of the first violation.
  void validate() const;

 private:
  std::vector<Net> nets_;
  std::vector<Instance> instances_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  NetId clock_ = kInvalidNet;
  // Transparent hash: find_net looks names up by string_view.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, NetId, NameHash, std::equal_to<>>
      net_by_name_;

  struct Structure {
    std::vector<std::uint32_t> fanout_offsets;
    std::vector<InstanceId> fanout_list;
    std::vector<InstanceId> topo;
    std::vector<InstanceId> cyclic;
    std::vector<InstanceId> flops;
  };
  // The structure plus the lock and flag that guard its one build. A copy
  // or move takes the source's structure if built, never its lock, so
  // Netlist keeps its defaulted copy and move.
  struct StructureSlot {
    StructureSlot() = default;
    StructureSlot(const StructureSlot& other) { take(other); }
    StructureSlot(StructureSlot&& other) noexcept { take(std::move(other)); }
    StructureSlot& operator=(const StructureSlot& other) {
      take(other);
      return *this;
    }
    StructureSlot& operator=(StructureSlot&& other) noexcept {
      take(std::move(other));
      return *this;
    }
    template <typename Slot>  // copies from an lvalue, moves from an rvalue
    void take(Slot&& other) {
      const bool ready = other.built;
      value = ready ? std::forward<Slot>(other).value : Structure{};
      built = ready;
    }
    // Marks the structure stale; the next query rebuilds it.
    void drop() { built = false; }

    std::mutex mu;
    std::atomic<bool> built{false};
    Structure value;
  };
  mutable StructureSlot structure_;

  const Structure& structure() const;
  Structure build_structure() const;
};

}  // namespace lv::circuit
