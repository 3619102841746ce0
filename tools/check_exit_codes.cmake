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
