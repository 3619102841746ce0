#include "sim/sim_graph.hpp"

#include <array>
#include <string>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lv::sim {

using circuit::CellInfo;
using circuit::CellKind;
using circuit::InstanceId;
using circuit::Logic;
using circuit::NetId;

namespace {

lv::obs::Timer& t_graph_compile() {
  static auto& t = lv::obs::Registry::global().timer("sim.graph_compile_ns");
  return t;
}

}  // namespace

// Per-kind truth tables over packed 2-bit Logic codes, built once per
// process through circuit::evaluate_cell so LUT evaluation is
// bit-identical to interpreted evaluation by construction. Entries whose
// decoded pins include the unused code 3 are never indexed (values_ only
// ever holds codes 0..2); they are filled with X for determinism, as are
// the never-read tables of sequential kinds. The event kernel has no
// other evaluation path, so a combinational cell too wide for a table is
// a library error, reported the first time the bank is read.
const std::vector<SimGraph::Lut>& SimGraph::luts() {
  static const std::vector<SimGraph::Lut> tables = [] {
    constexpr auto kind_count = static_cast<std::size_t>(CellKind::kind_count);
    std::vector<SimGraph::Lut> out(kind_count);
    for (std::size_t k = 0; k < kind_count; ++k) {
      const auto kind = static_cast<CellKind>(k);
      const CellInfo& info = circuit::cell_info(kind);
      out[k].fill(Logic::x);
      if (info.sequential) continue;
      lv::util::require(info.input_count <= SimGraph::kMaxLutInputs,
                        "SimGraph: combinational cell has more inputs "
                        "than a LUT holds");
      const int entries = 1 << (2 * info.input_count);
      for (int idx = 0; idx < entries; ++idx) {
        std::array<Logic, SimGraph::kMaxLutInputs> pins{};
        bool representable = true;
        for (int p = 0; p < info.input_count; ++p) {
          const int code = (idx >> (2 * p)) & 3;
          if (code == 3) {
            representable = false;
            break;
          }
          pins[static_cast<std::size_t>(p)] = static_cast<Logic>(code);
        }
        if (!representable) continue;
        out[k][static_cast<std::size_t>(idx)] = circuit::evaluate_cell(
            kind, {pins.data(), static_cast<std::size_t>(info.input_count)});
      }
    }
    return out;
  }();
  return tables;
}

void SimGraph::require_net_capacity(std::size_t net_count) {
  if (net_count >= kMaxNets)
    throw check::InputError(
        check::codes::net_too_large,
        "netlist has " + std::to_string(net_count) +
            " nets; the simulator supports fewer than " +
            std::to_string(kMaxNets));
}

SimGraph::SimGraph(const circuit::Netlist& netlist) : netlist_{netlist} {
  lv::obs::ScopedTimer compile_timer{t_graph_compile()};
  require_net_capacity(netlist.net_count());
  netlist.validate();
  net_count_ = netlist.net_count();
  const std::size_t inst_count = netlist.instance_count();

  // Per-instance nodes + flat input-pin array.
  nodes_.resize(inst_count);
  std::size_t pin_total = 0;
  for (InstanceId i = 0; i < inst_count; ++i)
    pin_total += netlist.instance(i).inputs.size();
  input_nets_.reserve(pin_total);
  for (InstanceId i = 0; i < inst_count; ++i) {
    const auto& inst = netlist.instance(i);
    const CellInfo& info = circuit::cell_info(inst.kind);
    Node& node = nodes_[i];
    node.output = inst.output;
    node.in_begin = static_cast<std::uint32_t>(input_nets_.size());
    node.in_count = static_cast<std::uint8_t>(inst.inputs.size());
    node.kind = static_cast<std::uint8_t>(inst.kind);
    node.sequential = info.sequential ? 1 : 0;
    input_nets_.insert(input_nets_.end(), inst.inputs.begin(),
                       inst.inputs.end());
    if (info.sequential) sequential_.push_back(i);
    if (inst.kind == CellKind::tie0)
      tie_inits_.push_back({inst.output, Logic::zero});
    else if (inst.kind == CellKind::tie1)
      tie_inits_.push_back({inst.output, Logic::one});
  }

  // Event-propagation CSR: the netlist's full consumer CSR filtered down
  // to combinational consumers, preserving ascending-instance order (the
  // evaluation order the bit-exact statistics contract depends on).
  const auto& full_offsets = netlist.fanout_offsets();
  const auto& full_list = netlist.fanout_list();
  eval_offsets_.assign(net_count_ + 1, 0);
  eval_list_.reserve(full_list.size());
  for (NetId n = 0; n < net_count_; ++n) {
    for (std::uint32_t k = full_offsets[n]; k < full_offsets[n + 1]; ++k) {
      const InstanceId consumer = full_list[k];
      if (nodes_[consumer].sequential == 0) eval_list_.push_back(consumer);
    }
    eval_offsets_[n + 1] = static_cast<std::uint32_t>(eval_list_.size());
  }

  net_is_input_.assign(net_count_, 0);
  for (const NetId n : netlist.primary_inputs()) net_is_input_[n] = 1;
}

}  // namespace lv::sim
