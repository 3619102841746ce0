// Parameterized netlist generators for the benchmark datapaths the paper
// profiles: adders (the 8-bit ripple-carry adder of Figs. 8-9), an array
// multiplier and a barrel shifter (the functional units of Tables 1-3 and
// Fig. 10), plus registers (Fig. 1) and comparators used by tests.
//
// Buses are LSB-first vectors of NetId. Generators either create fresh
// primary inputs (when given empty buses) or build onto caller nets.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"

namespace lv::circuit {

using Bus = std::vector<NetId>;

// Creates `width` primary inputs named `<prefix>0..`.
Bus make_input_bus(Netlist& nl, const std::string& prefix, int width);

struct AdderPorts {
  Bus a;
  Bus b;
  Bus sum;
  NetId cin = kInvalidNet;
  NetId cout = kInvalidNet;
};

struct FullAdderPorts {
  NetId sum = kInvalidNet;
  NetId cout = kInvalidNet;
};

// One full adder (2x XOR2, 2x AND2, 1x OR2) — the glitch-prone carry
// structure whose transition statistics Figs. 8-9 histogram.
FullAdderPorts build_full_adder(Netlist& nl, NetId a, NetId b, NetId cin,
                                const std::string& name,
                                const std::string& module = "");

// Ripple-carry adder. If `a`/`b` are empty, fresh inputs are created; if
// `cin` is kInvalidNet a TIE0 is used. Sum nets are marked as outputs when
// `mark_outputs`.
AdderPorts build_ripple_carry_adder(Netlist& nl, int width,
                                    const std::string& module = "adder",
                                    Bus a = {}, Bus b = {},
                                    NetId cin = kInvalidNet,
                                    bool mark_outputs = true);

// Carry-lookahead adder built from 4-bit lookahead groups with ripple
// between groups — shorter critical path than ripple, more gates.
AdderPorts build_carry_lookahead_adder(Netlist& nl, int width,
                                       const std::string& module = "adder",
                                       Bus a = {}, Bus b = {},
                                       bool mark_outputs = true);

// Carry-select adder: per-block duplicated sum logic with a mux on the
// late-arriving carry.
AdderPorts build_carry_select_adder(Netlist& nl, int width, int block = 4,
                                    const std::string& module = "adder",
                                    Bus a = {}, Bus b = {},
                                    bool mark_outputs = true);

struct MultiplierPorts {
  Bus a;
  Bus b;
  Bus product;  // 2 * width bits
};

// Unsigned array multiplier (AND partial products + ripple accumulation).
MultiplierPorts build_array_multiplier(Netlist& nl, int width,
                                       const std::string& module = "multiplier",
                                       Bus a = {}, Bus b = {},
                                       bool mark_outputs = true);

// Wallace-tree multiplier: the same partial products reduced with layers
// of 3:2 compressors (full adders) to two rows, then summed with a
// Kogge-Stone adder — logarithmic reduction depth, the fast/large point
// of the multiplier design space.
MultiplierPorts build_wallace_multiplier(Netlist& nl, int width,
                                         const std::string& module = "wmul",
                                         Bus a = {}, Bus b = {},
                                         bool mark_outputs = true);

// Carry-skip adder: ripple blocks whose group-propagate bypasses the
// block carry chain — between ripple and lookahead in both delay and
// area.
AdderPorts build_carry_skip_adder(Netlist& nl, int width, int block = 4,
                                  const std::string& module = "adder",
                                  Bus a = {}, Bus b = {},
                                  bool mark_outputs = true);

struct ShifterPorts {
  Bus data;
  Bus shamt;  // log2(width) select bits
  Bus out;
};

// Logarithmic barrel shifter (left shift, zero fill) of MUX2 stages.
ShifterPorts build_barrel_shifter(Netlist& nl, int width,
                                  const std::string& module = "shifter",
                                  Bus data = {}, Bus shamt = {},
                                  bool mark_outputs = true);

struct ComparatorPorts {
  Bus a;
  Bus b;
  NetId equal = kInvalidNet;
};

// Bitwise XNOR + AND reduction tree.
ComparatorPorts build_equality_comparator(Netlist& nl, int width,
                                          const std::string& module = "cmp",
                                          Bus a = {}, Bus b = {});

struct RegisterPorts {
  Bus d;
  Bus q;
};

// Bank of `width` flip-flops of the given register style (dff, dff_c2mos,
// dff_tspc, dff_lclr). Creates the clock when the netlist has none.
RegisterPorts build_register_bank(Netlist& nl, CellKind style, int width,
                                  const std::string& module = "reg",
                                  Bus d = {}, bool mark_outputs = true);

// Kogge-Stone parallel-prefix adder: log2(width) prefix levels, the
// fastest (and largest) adder in the library — used by timing/power
// architecture-comparison studies.
AdderPorts build_kogge_stone_adder(Netlist& nl, int width,
                                   const std::string& module = "adder",
                                   Bus a = {}, Bus b = {},
                                   bool mark_outputs = true);

struct CounterPorts {
  Bus gray;    // registered Gray-code outputs
  Bus binary;  // internal binary state (registered)
};

// Free-running Gray-code counter: binary increment + bin-to-Gray XORs.
// Exactly one Gray output bit toggles per clock — the minimum-activity
// counter (a Section 2 "signal statistics" showcase).
CounterPorts build_gray_counter(Netlist& nl, int width,
                                const std::string& module = "gray");

// Fibonacci LFSR over the given tap positions (bit indices into the
// register, LSB = 0). Output is the register state; feedback is the XOR
// of the taps. Needs a reset-to-nonzero via Simulator::reset_flops with
// Logic::one.
Bus build_lfsr(Netlist& nl, int width, const std::vector<int>& taps,
               const std::string& module = "lfsr");

struct PrecomputedComparatorPorts {
  Bus a;
  Bus b;
  NetId gt = kInvalidNet;      // a > b (unsigned), registered pipeline out
  NetId enable = kInvalidNet;  // precompute: 1 when the low bits matter
  // Module tag of the gateable low-order input registers; pass to
  // Simulator::set_module_clock_enable according to `enable` each cycle.
  std::string data_module;
};

// Magnitude comparator with precomputation-based register gating
// (Alidina et al. 1994 — the paper's reference [2]): the MSB comparison
// is precomputed ahead of the register stage; when the MSBs differ the
// low-order input registers are not clocked, so the (wide) low-order
// comparator sees frozen inputs and does not switch. One-cycle latency.
PrecomputedComparatorPorts build_precomputed_comparator(
    Netlist& nl, int width, const std::string& module = "precmp",
    Bus a = {}, Bus b = {});

// Fully-registered baseline: same pipeline, no gating (every input flop
// clocked every cycle). Same latency, directly comparable energy.
PrecomputedComparatorPorts build_registered_comparator(
    Netlist& nl, int width, const std::string& module = "regcmp",
    Bus a = {}, Bus b = {});

// Plain combinational ripple magnitude comparator.
PrecomputedComparatorPorts build_ripple_comparator(
    Netlist& nl, int width, const std::string& module = "cmp", Bus a = {},
    Bus b = {});

struct MacPorts {
  Bus a;            // sample input
  Bus b;            // coefficient input
  Bus accumulator;  // registered accumulator outputs (2*width + guard)
};

// Pipelined multiply-accumulate unit — the canonical real-time-DSP
// datapath of the paper's introduction. Stage 1 registers the operands
// ("<module>.in_regs_a" / "<module>.in_regs_b"), stage 2 multiplies (array multiplier,
// "<module>.mul"), stage 3 adds into the accumulator register
// ("<module>.acc"). Each stage is its own module tag so gated clocks can
// shut idle stages down. `guard_bits` extra accumulator width prevents
// early wrap-around.
MacPorts build_pipelined_mac(Netlist& nl, int width,
                             const std::string& module = "mac",
                             int guard_bits = 4);

struct AluPorts {
  Bus a;
  Bus b;
  Bus op;  // 2 bits: 00 add, 01 and, 10 or, 11 xor
  Bus result;
  NetId cout = kInvalidNet;
};

// Small ALU exercising several modules at once; the adder is tagged
// "<module>.add", the logic unit "<module>.logic", the result mux
// "<module>.mux".
AluPorts build_alu(Netlist& nl, int width, const std::string& module = "alu");

}  // namespace lv::circuit
