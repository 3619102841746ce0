// Semantic validators for every ingestion domain. Each overload walks one
// parsed object and reports *all* findings into the sink (it never throws
// and never stops at the first problem — `lvtool check` shows the user
// everything at once). Errors mean the object will poison downstream
// power/timing/optimum-V_T numbers; warnings flag suspicious-but-usable
// inputs (dead nets, bus index gaps, physically odd ranges).
//
// The errors for a process or a netlist are not written here. Each type
// states its rules once, next to its definition (Process::visit_rules,
// with the device slots' kMosfetFields and kSoiasFields, and
// Netlist::visit_rules); validate forwards every finding they report,
// and the constructors and validate() members throw the first. So an
// object passes `lvtool check` exactly when it can be built, with the
// same code and message either way. This file adds only the warnings.
#pragma once

#include "check/diag.hpp"
#include "circuit/netlist.hpp"
#include "sim/simulator.hpp"
#include "tech/process.hpp"

namespace lv::check {

// Every Process::visit_rules finding as an error, plus a warning for a
// temp_k outside the calibrated 150-500 K range.
void validate(const tech::Process& process, DiagSink& sink);

// Every Netlist::visit_rules finding as an error (unclocked flops,
// undriven nets, combinational cycles named by their gates), plus
// warnings for dangling nets, bus index gaps (a0/a2 declared but a1
// missing) and a netlist with gates but no primary outputs.
void validate(const circuit::Netlist& netlist, DiagSink& sink);

// Plausibility of activity statistics against their netlist: settled
// changes can never exceed transitions (glitches only add), a net's
// settled value changes at most once per cycle, and non-zero counts
// require a non-zero cycle total.
void validate(const circuit::Netlist& netlist, const sim::ActivityStats& stats,
              DiagSink& sink);

}  // namespace lv::check
