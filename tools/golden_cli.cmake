# Golden-output contract for the lvtool CLI.
#
# Runs every subcommand on fixed inputs (fixed seeds, predefined
# processes) and compares stdout and the exit code byte-for-byte against
# the fixtures in tests/fixtures/golden/. The fixtures were recorded from
# the pre-svc-refactor binary, so this is the proof that routing the CLI
# through the lv::svc request layer changed nothing observable.
#
#   cmake -DLVTOOL=... -DWORK=... -DGOLDEN=... -DMODE=check  -P golden_cli.cmake
#   cmake -DLVTOOL=... -DWORK=... -DGOLDEN=... -DMODE=record -P golden_cli.cmake
#
# MODE=record refreshes the fixtures (only for intentional output
# changes — every refresh is an API-contract change and needs review).
# File artifacts (generated netlists, activity dumps) are compared too:
# byte-identical files are what lets `lvtool client` materialize
# server-returned artifacts interchangeably with local runs.

if(NOT MODE)
  set(MODE check)
endif()
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(FAILURES "")

# run_as(name fixture expected_rc arg1...): execute lvtool in ${WORK},
# then compare stdout + exit code against ${fixture}.out (recording it
# when name == fixture). Paths printed by lvtool stay relative, so
# fixtures carry no machine-specific prefixes. run(name ...) is
# run_as(name name ...).
function(run_as name fixture expected_rc)
  execute_process(COMMAND ${LVTOOL} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(MODE STREQUAL "record")
    if(NOT name STREQUAL fixture)
      return()
    endif()
    file(WRITE ${GOLDEN}/${name}.out "${out}")
    if(NOT rc EQUAL ${expected_rc})
      message(FATAL_ERROR "record ${name}: expected exit ${expected_rc}, "
                          "got ${rc}\nstderr: ${err}")
    endif()
    return()
  endif()
  if(NOT rc EQUAL ${expected_rc})
    set(FAILURES "${FAILURES};${name}: exit ${rc} != ${expected_rc} "
                 "(stderr: ${err})" PARENT_SCOPE)
    return()
  endif()
  file(READ ${GOLDEN}/${fixture}.out want)
  if(NOT out STREQUAL want)
    file(WRITE ${WORK}/${name}.actual "${out}")
    set(FAILURES "${FAILURES};${name}: stdout differs from golden "
                 "(actual saved to ${WORK}/${name}.actual)" PARENT_SCOPE)
  endif()
endfunction()

macro(run name expected_rc)
  run_as(${name} ${name} ${expected_rc} ${ARGN})
endmacro()

# check_file_as(name fixture path): compare a produced artifact against
# ${fixture}.file (recording it when name == fixture); check_file(name
# path) is check_file_as(name name path).
function(check_file_as name fixture path)
  file(READ ${WORK}/${path} got)
  if(MODE STREQUAL "record")
    if(name STREQUAL fixture)
      file(WRITE ${GOLDEN}/${name}.file "${got}")
    endif()
    return()
  endif()
  file(READ ${GOLDEN}/${fixture}.file want)
  if(NOT got STREQUAL want)
    set(FAILURES "${FAILURES};${name}: artifact ${path} differs from golden"
        PARENT_SCOPE)
  endif()
endfunction()

macro(check_file name path)
  check_file_as(${name} ${name} ${path})
endmacro()

# ---- fixed inputs ------------------------------------------------------
file(WRITE ${WORK}/gap.lvnet
     "lvnet 1\ninput a0\ninput a1\ninput a3\nnet w\nnet v\n"
     "gate g1 NAND2 w a0 a1\ngate g2 INV v a3\noutput w\noutput v\n")
file(WRITE ${WORK}/bad.lvtech "lvtech 1\n[nmos]\nvt0 = nan\nalpha = 9.9\n")

# ---- the 15 subcommands ------------------------------------------------
run(gen_file 0 gen rca 4 -o adder.lvnet)
check_file(gen_file_artifact adder.lvnet)
run(gen_stdout 0 gen cla 4)
run(stats 0 stats adder.lvnet)
run(simulate 0 simulate adder.lvnet --vectors 64 --seed 7
    --activity-out act.lvact)
check_file(simulate_activity act.lvact)
run(power_alpha 0 power adder.lvnet soi_low_vt --alpha 0.3)
run(power_activity 0 power adder.lvnet soi_low_vt --activity act.lvact)
run(timing 0 timing adder.lvnet soi_low_vt)
run(dualvt 0 dualvt adder.lvnet dual_vt_mtcmos)
run(optimize_vt 0 optimize-vt soi_low_vt --fclk 5e6 --activity 0.5)
run(profile 0 profile crc32)
run(techfile 0 techfile soias)
run(glitch 0 glitch adder.lvnet soi_low_vt --vectors 200 --seed 3)
# The activity replay splits the vectors over --threads workers; output
# and artifact must not change.
run_as(simulate_t4 simulate 0 simulate adder.lvnet --vectors 64 --seed 7
       --activity-out act.lvact --threads 4)
check_file_as(simulate_activity_t4 simulate_activity act.lvact)
run_as(glitch_t4 glitch 0 glitch adder.lvnet soi_low_vt --vectors 200
       --seed 3 --threads 4)
run(faults_word 0 faults adder.lvnet --vectors 64 --seed 5)
run(paths 0 paths adder.lvnet soi_low_vt --k 3)
run(sizing 0 sizing adder.lvnet soi_low_vt)
run(optimize 0 optimize adder.lvnet -o opt.lvnet)
check_file(optimize_artifact opt.lvnet)
run(check_ok 0 check adder.lvnet)
run(check_warn 0 check gap.lvnet)
run(check_strict 2 check gap.lvnet --strict)
run(check_bad_tech 2 check bad.lvtech)

if(FAILURES)
  string(REPLACE ";" "\n  " pretty "${FAILURES}")
  message(FATAL_ERROR "golden CLI contract violations:${pretty}")
endif()
