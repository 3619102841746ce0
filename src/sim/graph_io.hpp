// SimGraph serialization — the artifact-store payload for compiled
// graphs (lv-graph/2, layout in docs/FORMATS.md).
//
// encode_graph flattens the compiled arrays except what the nodes' cell
// kinds already determine: each node's sequential flag and the list of
// sequential instances are derived from the kinds on decode, as compile
// does (the LUT bank is per-process data, never part of a graph). The
// one derived field the layout keeps is a word-plan byte per node: the
// node's kind, or 0xfd for a flop, and decode accepts no other byte.
// decode_graph checks every index against the netlist it is being
// attached to and each node's input count against its cell's arity,
// and throws
// util::Error on any inconsistency — the caller treats that as a stale
// entry and recompiles, so a stale or damaged blob can cost a
// recompile, never an out-of-bounds index. The checks are structural:
// a blob that stays in bounds but rewires the graph still decodes, and
// pairing it with the right netlist is the caller's job (below).
//
// The caller owns pairing: a decoded graph holds a reference to
// `netlist`, which must be the same design the blob was encoded from
// (the store guarantees this by keying the enclosing entry on the
// netlist bytes) and must outlive the graph.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"

namespace lv::sim {

std::string encode_graph(const SimGraph& graph);

std::shared_ptr<const SimGraph> decode_graph(const circuit::Netlist& netlist,
                                             std::string_view blob);

}  // namespace lv::sim
