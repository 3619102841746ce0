# Exit-code contract smoke: lvtool must return 0 on success and 2 on any
# input error, with a coded diagnostic on stderr. Exercises the `check`
# subcommand, checked CLI option parsing, and unreadable-file handling.
file(MAKE_DIRECTORY ${WORK})
set(NETLIST ${WORK}/check_adder.lvnet)

function(expect_exit expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR "expected exit ${expected}, got ${rc}: ${ARGN}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  set(LAST_OUT "${out}" PARENT_SCOPE)
  set(LAST_ERR "${err}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "output missing '${pattern}':\n${text}")
  endif()
endfunction()

# A valid netlist checks clean (exit 0).
expect_exit(0 ${LVTOOL} gen rca 4 -o ${NETLIST})
expect_exit(0 ${LVTOOL} check ${NETLIST})
expect_match("${LAST_OUT}" "0 error")

# Garbage numeric option: exit 2 with the cli.number code on stderr.
expect_exit(2 ${LVTOOL} power ${NETLIST} soi_low_vt --vdd oops)
expect_match("${LAST_ERR}" "cli.number")

# --vectors is a count: a negative or fractional value is an input error
# (exit 2, cli.number) for every command that takes it, not a cast.
foreach(bad -3 2.5)
  expect_exit(2 ${LVTOOL} simulate ${NETLIST} --vectors ${bad})
  expect_match("${LAST_ERR}" "cli.number")
  expect_exit(2 ${LVTOOL} glitch ${NETLIST} soi_low_vt --vectors ${bad})
  expect_match("${LAST_ERR}" "cli.number")
  expect_exit(2 ${LVTOOL} faults ${NETLIST} --vectors ${bad})
  expect_match("${LAST_ERR}" "cli.number")
endforeach()
expect_exit(0 ${LVTOOL} simulate ${NETLIST} --vectors 0)

# Unreadable file: exit 2 with io.open.
expect_exit(2 ${LVTOOL} check ${WORK}/no_such_file.lvnet)
expect_match("${LAST_ERR}" "io.open")

# Corrupt techfile: every error reported, coded, exit 2, and the JSON
# report carries the lv-diag/1 schema.
file(WRITE ${WORK}/bad.lvtech "lvtech 1\n[nmos]\nvt0 = nan\nalpha = 9.9\n")
expect_exit(2 ${LVTOOL} check ${WORK}/bad.lvtech
            --diag-json ${WORK}/bad_diags.json)
expect_match("${LAST_OUT}" "tech.nonfinite")
expect_match("${LAST_OUT}" "tech.range")
file(READ ${WORK}/bad_diags.json _json)
expect_match("${_json}" "lv-diag/1")

# Warnings alone keep exit 0 — unless --strict promotes them.
file(WRITE ${WORK}/gap.lvnet
     "lvnet 1\ninput a0\ninput a1\ninput a3\nnet w\nnet v\n"
     "gate g1 NAND2 w a0 a1\ngate g2 INV v a3\noutput w\noutput v\n")
expect_exit(0 ${LVTOOL} check ${WORK}/gap.lvnet)
expect_match("${LAST_OUT}" "net.bus_gap")
expect_exit(2 ${LVTOOL} check ${WORK}/gap.lvnet --strict)

# Unknown subcommand is a usage (input) error, not an internal one.
expect_exit(2 ${LVTOOL} frobnicate)

# Every command checks its arguments against its declared table: an
# undeclared option (including a misspelling of a declared one) is a
# cli.option input error, never silently ignored.
foreach(cmdline
    "check;${NETLIST}"
    "gen;rca;4"
    "stats;${NETLIST}"
    "simulate;${NETLIST}"
    "power;${NETLIST};soi_low_vt;--alhpa;0.9"
    "timing;${NETLIST};soi_low_vt"
    "dualvt;${NETLIST};dual_vt_mtcmos"
    "optimize-vt;soi_low_vt"
    "profile;crc32"
    "techfile;soias"
    "glitch;${NETLIST};soi_low_vt"
    "faults;${NETLIST}"
    "paths;${NETLIST};soi_low_vt"
    "sizing;${NETLIST};soi_low_vt"
    "optimize;${NETLIST}"
    "version"
    "cache;stats"
    "failpoints"
    "serve;--socket;${WORK}/never.sock"
    "client;--socket;${WORK}/never.sock")
  expect_exit(2 ${LVTOOL} ${cmdline} --bogus 1)
  expect_match("${LAST_ERR}" "cli.option")
endforeach()

# A missing positional, a value outside its declared range, an integer
# option given a fraction, and a group violation: exit 2 with a code.
foreach(case
    "cli.option|simulate"
    "cli.option|power;${NETLIST}"
    "cli.number|gen;rca;0"
    "cli.number|gen;shifter;3"
    "cli.number|paths;${NETLIST};soi_low_vt;--k;-1"
    "cli.number|paths;${NETLIST};soi_low_vt;--k;65"
    "cli.number|profile;idea;--blocks;0"
    "cli.number|profile;idea;--blocks;-5"
    "cli.number|simulate;${NETLIST};--seed;2.7"
    "cli.number|simulate;${NETLIST};--seed;-1"
    "cli.number|profile;crc32;--gap;-1"
    "cli.option|power;${NETLIST};soi_low_vt;--alpha;0.3;--activity;x.lvact"
    "cli.option|serve"
    "cli.option|serve;--socket;${WORK}/s.sock;--port;7421"
    "cli.option|client;version"
    "cli.number|simulate;${NETLIST};--threads;-1"
    "cli.number|simulate;${NETLIST};--threads;1025"
    "cli.number|serve;--socket;${WORK}/s.sock;--workers;1025")
  string(REPLACE "|" ";" parts "${case}")
  list(POP_FRONT parts code)
  expect_exit(2 ${LVTOOL} ${parts})
  expect_match("${LAST_ERR}" "${code}")
endforeach()

# A netlist the random stimulus cannot drive is the caller's input error
# (exit 2, sim.stimulus), raised before any simulation: flip-flops for
# the combinational-only fault grader, no primary inputs, more than 64.
file(WRITE ${WORK}/dff.lvnet
     "lvnet 1\nclock clk\ninput d\nnet q\ngate f0 DFF q d clk\noutput q\n")
file(WRITE ${WORK}/no_inputs.lvnet
     "lvnet 1\nnet y\ngate t0 TIE1 y\noutput y\n")
expect_exit(0 ${LVTOOL} gen rca 33 -o ${WORK}/rca33.lvnet)
foreach(cmdline
    "faults;${WORK}/dff.lvnet"
    "simulate;${WORK}/no_inputs.lvnet"
    "simulate;${WORK}/rca33.lvnet")
  expect_exit(2 ${LVTOOL} ${cmdline})
  expect_match("${LAST_ERR}" "sim.stimulus")
endforeach()
