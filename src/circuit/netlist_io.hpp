// Structural netlist text format.
//
//     lvnet 1
//     input a0
//     clock clk
//     net w1
//     gate fa0_x XOR2 w1 a0 b0 module=adder
//     output s0
//
// Statements: input/clock/net declare nets; `gate <name> <KIND> <out>
// <in...> [module=<tag>]` instantiates a cell driving <out> (declared
// implicitly when new); `output <net>` marks a primary output. '#' starts
// a comment. Order is free except nets must exist before use as inputs.
#pragma once

#include <string>
#include <string_view>

#include "circuit/netlist.hpp"

namespace lv::circuit {

std::string to_netlist_text(const Netlist& netlist);

// Throws lv::check::InputError (a lv::util::Error carrying a coded
// diagnostic with the line number) on malformed input. Syntax only: the
// result may still break Netlist::visit_rules (an undriven net, an
// unclocked flop, a combinational cycle), so a caller that needs a usable
// netlist reads the text through check::require_netlist. Names may not
// start with "module=" (reserved by the gate-statement grammar).
Netlist parse_netlist_text(std::string_view text);

}  // namespace lv::circuit
