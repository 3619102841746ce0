// The stable diagnostic-code vocabulary. Codes are dotted identifiers
// grouped by input domain; tests and downstream tooling match on these,
// so changing one is a breaking change to the lv-diag/1 schema
// (docs/FORMATS.md documents the vocabulary).
#pragma once

namespace lv::check::codes {

// ---- I/O and CLI ------------------------------------------------------
inline constexpr char io_open[] = "io.open";      // cannot open/read a file
inline constexpr char io_write[] = "io.write";    // cannot write a file
inline constexpr char cli_number[] = "cli.number";  // non-numeric option value
inline constexpr char cli_option[] = "cli.option";  // malformed option use

// ---- techfile: syntax (parser) ----------------------------------------
inline constexpr char tech_syntax[] = "tech.syntax";  // header/section/key shape
inline constexpr char tech_number[] = "tech.number";  // value not a number
inline constexpr char tech_unknown_key[] = "tech.unknown_key";

// ---- techfile / Process: semantics (validators) -----------------------
inline constexpr char tech_nonfinite[] = "tech.nonfinite";    // NaN/Inf field
inline constexpr char tech_nonpositive[] = "tech.nonpositive";  // must be > 0 (or >= 0)
inline constexpr char tech_range[] = "tech.range";        // outside physical range
inline constexpr char tech_vdd_order[] = "tech.vdd_order";  // vdd_min <= nom <= max broken
inline constexpr char tech_polarity[] = "tech.polarity";  // NMOS/PMOS slots swapped

// ---- netlist: syntax (parser / construction) --------------------------
inline constexpr char net_syntax[] = "net.syntax";
inline constexpr char net_unknown_cell[] = "net.unknown_cell";
inline constexpr char net_unknown_net[] = "net.unknown_net";
inline constexpr char net_multi_driver[] = "net.multi_driver";
inline constexpr char net_arity[] = "net.arity";  // pin count vs catalog
inline constexpr char net_reserved_name[] = "net.reserved_name";  // "module=..."
inline constexpr char net_too_large[] = "net.too_large";  // past the kernel's net-id range

// ---- netlist: semantics (validators) ----------------------------------
inline constexpr char net_cycle[] = "net.cycle";      // combinational loop
inline constexpr char net_undriven[] = "net.undriven";  // used but never driven
inline constexpr char net_clocking[] = "net.clocking";  // flop off the clock net
inline constexpr char net_dangling[] = "net.dangling";  // warning: dead net
inline constexpr char net_no_outputs[] = "net.no_outputs";  // warning
inline constexpr char net_bus_gap[] = "net.bus_gap";  // warning: a0,a2 but no a1

// ---- activity ---------------------------------------------------------
inline constexpr char act_syntax[] = "act.syntax";
inline constexpr char act_unknown_net[] = "act.unknown_net";
inline constexpr char act_count_order[] = "act.count_order";  // settled > transitions
inline constexpr char act_settled_exceeds_cycles[] = "act.settled_exceeds_cycles";
inline constexpr char act_zero_cycles[] = "act.zero_cycles";  // counts with cycles == 0

// ---- simulation --------------------------------------------------------
inline constexpr char sim_event_budget[] =
    "sim.event_budget";  // a settle ran past SimConfig::max_events_per_settle
inline constexpr char sim_stimulus[] =
    "sim.stimulus";  // netlist random stimulus cannot drive (0 or > 64 inputs,
                     // flops for faults)

// ---- guarded numerics (analysis engines) ------------------------------
inline constexpr char power_nonfinite[] = "power.nonfinite";
inline constexpr char sta_nonfinite[] = "sta.nonfinite";

// ---- svc: request layer + lvrpc/1 wire protocol -----------------------
inline constexpr char svc_frame[] = "svc.frame";      // bad magic / garbage header
inline constexpr char svc_version[] = "svc.version";  // protocol version mismatch
inline constexpr char svc_oversize[] = "svc.oversize";  // payload exceeds the cap
inline constexpr char svc_truncated[] = "svc.truncated";  // stream ended mid-frame
inline constexpr char svc_payload[] = "svc.payload";  // malformed request payload
inline constexpr char svc_op[] = "svc.op";            // unknown operation name
inline constexpr char svc_overload[] = "svc.overload";  // request queue full
inline constexpr char svc_deadline[] = "svc.deadline";  // deadline expired in queue
inline constexpr char svc_state[] = "svc.state";      // frame out of session order
inline constexpr char svc_io[] = "svc.io";            // socket-level failure
inline constexpr char svc_addr_in_use[] =
    "svc.addr_in_use";  // live server already bound to the endpoint
inline constexpr char svc_internal[] =
    "svc.internal";  // handler exception contained by the worker
inline constexpr char svc_timeout[] =
    "svc.timeout";  // client-side --timeout-ms expired waiting for a reply
inline constexpr char svc_retry_exhausted[] =
    "svc.retry_exhausted";  // client gave up after its retry budget

}  // namespace lv::check::codes
