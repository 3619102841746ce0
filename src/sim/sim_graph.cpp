#include "sim/sim_graph.hpp"

#include <array>
#include <bitset>
#include <string>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "obs/metrics.hpp"
#include "sim/graph_access.hpp"
#include "sim/word_logic.hpp"
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

// Per-kind truth tables over packed 2-bit Logic codes, built once per
// process through circuit::evaluate_cell so LUT evaluation is
// bit-identical to interpreted evaluation by construction. Entries whose
// decoded pins include the unused code 3 are never indexed (values_ only
// ever holds codes 0..2); they are filled with X for determinism, as are
// the never-read tables of sequential kinds. The kernels have no other
// evaluation path, so a combinational cell too wide for a table is a
// library error, reported here before any graph is built.
const std::vector<SimGraph::Lut>& kind_luts() {
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

// Verified direct-word-operator admission. A combinational kind gets a
// direct word plan only if word_evaluate_direct reproduces
// circuit::evaluate_cell on *every* 3^k three-valued input combination,
// checked once per process with each candidate input broadcast to all 64
// lanes plus a rotating per-lane pattern (so a lane-mixing bug in the
// bitplane algebra cannot hide behind uniform lanes). Any mismatch
// demotes the kind to the per-lane LUT fallback, which is built through
// evaluate_cell and therefore correct by construction.
const std::bitset<static_cast<std::size_t>(CellKind::kind_count)>&
verified_word_kinds() {
  static const auto verified = [] {
    constexpr auto kind_count = static_cast<std::size_t>(CellKind::kind_count);
    std::bitset<kind_count> ok;
    constexpr std::array<Logic, 3> codes{Logic::zero, Logic::one, Logic::x};
    for (std::size_t k = 0; k < kind_count; ++k) {
      const auto kind = static_cast<CellKind>(k);
      const CellInfo& info = circuit::cell_info(kind);
      if (info.sequential || !word_op_candidate(kind)) continue;
      const int n = info.input_count;
      int combos = 1;
      for (int p = 0; p < n; ++p) combos *= 3;
      // Combination c assigns pin p the base-3 digit p of c. Its pins
      // and scalar truth (at most 3^4 combinations) are computed once.
      static_assert(SimGraph::kMaxLutInputs == 4);
      std::array<std::array<Logic, SimGraph::kMaxLutInputs>, 81> pins{};
      std::array<Logic, 81> want{};
      for (int c = 0; c < combos; ++c) {
        auto& combo = pins[static_cast<std::size_t>(c)];
        int rest = c;
        for (int p = 0; p < n; ++p) {
          combo[static_cast<std::size_t>(p)] =
              codes[static_cast<std::size_t>(rest % 3)];
          rest /= 3;
        }
        want[static_cast<std::size_t>(c)] = circuit::evaluate_cell(
            kind, {combo.data(), static_cast<std::size_t>(n)});
      }
      bool good = true;
      for (int c = 0; c < combos && good; ++c) {
        // Lane pattern: lane L holds the combination rotated by L, so
        // neighbouring lanes carry different combinations.
        std::array<LogicW, SimGraph::kMaxLutInputs> words{};
        for (unsigned lane = 0; lane < kLaneCount; ++lane) {
          const auto& combo = pins[static_cast<std::size_t>(
              (c + static_cast<int>(lane)) % combos)];
          for (int p = 0; p < n; ++p)
            words[static_cast<std::size_t>(p)] =
                with_lane(words[static_cast<std::size_t>(p)], lane,
                          combo[static_cast<std::size_t>(p)]);
        }
        const LogicW got = word_evaluate_direct(kind, words.data());
        // Every lane must match its own combination's scalar truth; lane
        // 0's rotation is 0, i.e. the combination under test.
        for (unsigned lane = 0; lane < kLaneCount && good; ++lane)
          good = lane_of(got, lane) ==
                 want[static_cast<std::size_t>(
                     (c + static_cast<int>(lane)) % combos)];
      }
      ok[k] = good;
    }
    return ok;
  }();
  return verified;
}

}  // namespace

const std::vector<SimGraph::Lut>& detail::GraphAccess::builtin_luts() {
  return kind_luts();
}

bool detail::GraphAccess::word_direct_verified(circuit::CellKind kind) {
  return verified_word_kinds()[static_cast<std::size_t>(kind)];
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

  luts_ = kind_luts();

  // Per-instance nodes + flat input-pin array.
  nodes_.resize(inst_count);
  word_ops_.assign(inst_count, kWordLut);
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
    // Word plan: direct bitwise evaluation for verified kinds, per-lane
    // LUT fallback otherwise; flops are not event-evaluated.
    if (info.sequential)
      word_ops_[i] = kWordSequential;
    else if (verified_word_kinds()[static_cast<std::size_t>(inst.kind)])
      word_ops_[i] = static_cast<std::uint8_t>(inst.kind);
    else
      word_ops_[i] = kWordLut;
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
