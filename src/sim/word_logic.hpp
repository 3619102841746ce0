// Lane-parallel three-valued logic: 64 independent simulation lanes per
// word, two bitplanes per net.
//
// The event kernel stores one circuit::Logic per net; word evaluation
// (sim::WordEvaluator, used by the fault kernel) stores a LogicW — two
// uint64_t planes where bit L describes lane L:
//
//   one[L] = 1, x[L] = 0   -> lane L is Logic::one
//   one[L] = 0, x[L] = 0   -> lane L is Logic::zero
//   one[L] = 0, x[L] = 1   -> lane L is Logic::x
//
// The canonical-form invariant `one & x == 0` (an X lane always has a 0
// value bit) is what makes word equality comparisons exact: two LogicW
// words are equal iff every lane holds the same three-valued value.
//
// The operators below implement the same truth tables as
// circuit/logic.hpp, evaluated on all 64 lanes at once with a handful of
// bitwise instructions. Every combinational cell kind has one, and they
// are the only word-level evaluation: tests/sim_bitparallel_test.cpp
// checks each against circuit::evaluate_cell over all 3^k input
// combinations, with a different combination in every lane, so a wrong
// or missing operator fails the test suite.
#pragma once

#include <cstdint>

#include "circuit/cells.hpp"
#include "circuit/logic.hpp"

namespace lv::sim {

struct LogicW {
  std::uint64_t one = 0;               // lanes known to be 1
  std::uint64_t x = ~std::uint64_t{0};  // lanes with unknown value

  friend constexpr bool operator==(LogicW a, LogicW b) {
    return a.one == b.one && a.x == b.x;
  }
  friend constexpr bool operator!=(LogicW a, LogicW b) { return !(a == b); }
};

inline constexpr unsigned kLaneCount = 64;
inline constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

// ---- lane accessors ----------------------------------------------------

constexpr LogicW broadcast(circuit::Logic v) {
  if (v == circuit::Logic::one) return {kAllLanes, 0};
  if (v == circuit::Logic::zero) return {0, 0};
  return {0, kAllLanes};
}

constexpr circuit::Logic lane_of(LogicW w, unsigned lane) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  if (w.x & bit) return circuit::Logic::x;
  return (w.one & bit) ? circuit::Logic::one : circuit::Logic::zero;
}

// Returns `w` with lane `lane` replaced by `v` (canonical form kept).
constexpr LogicW with_lane(LogicW w, unsigned lane, circuit::Logic v) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  w.one &= ~bit;
  w.x &= ~bit;
  if (v == circuit::Logic::one) w.one |= bit;
  else if (v == circuit::Logic::x) w.x |= bit;
  return w;
}

// Lanes whose value is a known 0.
constexpr std::uint64_t known_zeros(LogicW w) { return ~(w.one | w.x); }

// ---- operators (truth tables of circuit/logic.hpp, all lanes at once) --

constexpr LogicW w_not(LogicW a) { return {known_zeros(a), a.x}; }

constexpr LogicW w_and(LogicW a, LogicW b) {
  const std::uint64_t one = a.one & b.one;
  const std::uint64_t zero = known_zeros(a) | known_zeros(b);
  return {one, ~(one | zero)};
}

constexpr LogicW w_or(LogicW a, LogicW b) {
  const std::uint64_t one = a.one | b.one;
  const std::uint64_t zero = known_zeros(a) & known_zeros(b);
  return {one, ~(one | zero)};
}

constexpr LogicW w_xor(LogicW a, LogicW b) {
  const std::uint64_t x = a.x | b.x;
  return {(a.one ^ b.one) & ~x, x};
}

// s ? b : a with X-propagation: an X select resolves only where the two
// data inputs agree on a known value.
constexpr LogicW w_mux(LogicW a, LogicW b, LogicW s) {
  const std::uint64_t sel0 = known_zeros(s);
  const std::uint64_t sel1 = s.one;
  const std::uint64_t selx = s.x;
  const std::uint64_t agree_one = a.one & b.one;
  const std::uint64_t agree_zero = known_zeros(a) & known_zeros(b);
  const std::uint64_t one = (a.one & sel0) | (b.one & sel1) |
                            (agree_one & selx);
  const std::uint64_t x = (a.x & sel0) | (b.x & sel1) |
                          (selx & ~(agree_one | agree_zero));
  return {one, x};
}

// ---- direct word evaluation per cell kind ------------------------------

// Evaluates a combinational cell on all 64 lanes. `in` holds the cell's
// input_count words; a sequential kind has no operator and yields X.
constexpr LogicW word_evaluate_direct(circuit::CellKind kind,
                                      const LogicW* in) {
  using K = circuit::CellKind;
  switch (kind) {
    case K::inv: return w_not(in[0]);
    case K::buf: return in[0];
    case K::nand2: return w_not(w_and(in[0], in[1]));
    case K::nand3: return w_not(w_and(w_and(in[0], in[1]), in[2]));
    case K::nand4:
      return w_not(w_and(w_and(in[0], in[1]), w_and(in[2], in[3])));
    case K::nor2: return w_not(w_or(in[0], in[1]));
    case K::nor3: return w_not(w_or(w_or(in[0], in[1]), in[2]));
    case K::nor4:
      return w_not(w_or(w_or(in[0], in[1]), w_or(in[2], in[3])));
    case K::and2: return w_and(in[0], in[1]);
    case K::or2: return w_or(in[0], in[1]);
    case K::xor2: return w_xor(in[0], in[1]);
    case K::xnor2: return w_not(w_xor(in[0], in[1]));
    case K::aoi21: return w_not(w_or(w_and(in[0], in[1]), in[2]));
    case K::oai21: return w_not(w_and(w_or(in[0], in[1]), in[2]));
    case K::mux2: return w_mux(in[0], in[1], in[2]);
    case K::tie0: return broadcast(circuit::Logic::zero);
    case K::tie1: return broadcast(circuit::Logic::one);
    default: return broadcast(circuit::Logic::x);
  }
}

}  // namespace lv::sim
