// Stuck-at fault simulation.
//
// `fault_coverage` grades a vector set against the collapsed stuck-at
// fault list (two faults per gate-driven net). Used to grade the
// stimulus generators (random vs counting coverage) and as a harness
// robustness check: a bug in a generator shows up here first.
//
// The kernel is parallel-pattern single-fault propagation (PPSFP): the
// 64 lanes of a LogicW word carry 64 consecutive *vectors*, not 64 fault
// machines. Grading needs only settled outputs, so each 64-vector block
// takes one levelized pass over the netlist's topological order for the
// good machine, with no event queue. Every still-undetected fault is
// then propagated on its own against that block: its stuck value is
// written onto its net, and only gates with a disturbed input are re-
// evaluated, in topological order, each at most once. A fault whose
// stuck value equals the good word in every lane costs nothing. The
// fault's detection mask (lanes where an output is X or differs from the
// good machine) gives its first detecting vector as block * 64 + the
// lowest set lane, and detected faults drop out before the next block.
//
// Cost is O(blocks x (gates + gates disturbed per live fault)). The
// disturbed cone is usually a small share of the netlist, and most
// faults are detected in the first block. Faults within a block are
// independent, so they can spread over the exec workers, but only a
// block whose live faults x gates reaches a measured threshold (5e5)
// does, one exec index per fault. A smaller block is one index covering
// every live fault, graded inline on the calling thread: a few hundred
// microseconds of work cost less there than a pool hand-off and, on the
// first pooled block, the start of the pool's threads. At 256 vectors
// alu16, ks32 and mul8 never start the pool and mul12 pools only its
// first block (EXPERIMENTS.md, "Fixed cost of a short run"). The rule
// reads the netlist and the vectors alone, so the result, every exact
// counter and the split into exec indices are the same at any width.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"

namespace lv::sim {

struct Fault {
  circuit::NetId net = 0;
  circuit::Logic stuck_at = circuit::Logic::zero;  // zero or one
};

// All stuck-at faults on gate-driven nets (two per net), excluding
// primary inputs and the clock.
std::vector<Fault> enumerate_faults(const circuit::Netlist& netlist);

struct CoverageResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  double coverage = 0.0;  // detected / total
  std::vector<Fault> undetected;
  // first_detections[i] = number of faults whose *first* detection was
  // vectors[i] (each fault attributed once, to the earliest detecting
  // vector; the sum equals `detected`). The marginal-coverage profile of
  // a vector set: a long zero tail means the extra vectors bought
  // nothing.
  std::vector<std::uint64_t> first_detections;
};

// Fault simulation of combinational netlists: applies each input vector
// to the good and faulty machines and flags a detection when any primary
// output differs (or reads X on the faulty machine). `vectors` drive all
// primary inputs as one packed bus (LSB = first declared input). The
// result is identical at any thread count.
CoverageResult fault_coverage(const circuit::Netlist& netlist,
                              const std::vector<std::uint64_t>& vectors);

}  // namespace lv::sim
