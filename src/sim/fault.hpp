// Stuck-at fault simulation.
//
// `fault_coverage` grades a vector set against the collapsed stuck-at
// fault list (two faults per gate-driven net). Used to grade the
// stimulus generators (random vs counting coverage) and as a harness
// robustness check: a bug in a generator shows up here first.
//
// Grading needs only *settled* outputs, so the kernel is levelized and
// oblivious rather than event-driven: each batch packs the good machine
// into lane 0 and up to 63 fault machines into lanes 1-63 of a LogicW
// word per net, and every vector is one pass over the netlist's
// topological order with no event queue. A fault is a stuck-at-0 or
// stuck-at-1 lane mask applied to its net's word right after that net is
// computed, so downstream gates see the stuck value in the faulty lane
// only. Cost is O(batches x vectors x gates) whatever the logic depth or
// glitch count. Detection is a word-level compare at the primary
// outputs: a fault lane detects when any output bit is X or differs from
// the lane-0 value.
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
