// Incremental SimGraph recompilation for small netlist edits.
//
// The interactive what-if loop (resize one gate, re-estimate) edits a
// design that differs from an already-compiled one in a handful of
// instances. diff_netlists classifies the edit: if the two netlists are
// *aligned* — same nets (names and roles) and same instances (names,
// outputs, modules) — the only differences are per-instance cell kinds
// and input wiring, and the compiled graph can be produced by copying
// the base graph's arrays and patching exactly what the edit touched:
// the changed instances' nodes (a node's kind is all the word and LUT
// evaluators read), their pin spans, and — when wiring moved — the
// combinational-consumer CSR. Everything untouched is carried over
// verbatim, which is what makes the result bit-identical to a
// from-scratch compile (pinned by sim_incremental_test).
//
// recompile_incremental returns nullptr whenever the edit falls outside
// that envelope (misaligned netlists, a combinational<->sequential kind
// flip); callers fall back to a full compile.
#pragma once

#include <memory>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"

namespace lv::sim {

struct GraphDelta {
  // True when base and edited share the same structural skeleton and the
  // edit is expressible as per-instance kind/input changes.
  bool aligned = false;
  // Instances whose kind or input wiring differs (ascending order).
  std::vector<circuit::InstanceId> changed;
};

GraphDelta diff_netlists(const circuit::Netlist& base,
                         const circuit::Netlist& edited);

// Compiled graph for `edited`, built from `base_graph` by patching the
// delta's touched cones. nullptr when the delta is not incrementally
// applicable. `edited` must already be validated (the svc layer parses
// through check::require_netlist) and must outlive the returned graph.
std::shared_ptr<const SimGraph> recompile_incremental(
    const SimGraph& base_graph, const circuit::Netlist& edited,
    const GraphDelta& delta);

}  // namespace lv::sim
