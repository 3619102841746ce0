# End-to-end lvtool smoke: generate a netlist file, then run the analysis
# subcommands against it. Any non-zero exit fails the test.
file(MAKE_DIRECTORY ${WORK})
set(NETLIST ${WORK}/adder.lvnet)

function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
  endif()
endfunction()

run(${LVTOOL} gen rca 8 -o ${NETLIST})
run(${LVTOOL} stats ${NETLIST})
run(${LVTOOL} power ${NETLIST} soi_low_vt --alpha 0.3)
run(${LVTOOL} timing ${NETLIST} soi_low_vt --vdd 1.0)
run(${LVTOOL} dualvt ${NETLIST} dual_vt_mtcmos --margin 0.05)
run(${LVTOOL} simulate ${NETLIST} --vectors 500 --activity-out ${WORK}/a.lvact)
run(${LVTOOL} power ${NETLIST} soi_low_vt --activity ${WORK}/a.lvact)
run(${LVTOOL} glitch ${NETLIST} soi_low_vt --vectors 500)
run(${LVTOOL} faults ${NETLIST} --vectors 64)
run(${LVTOOL} faults ${NETLIST} --vectors 64 --threads 4)
run(${LVTOOL} paths ${NETLIST} soi_low_vt --k 3)
run(${LVTOOL} sizing ${NETLIST} soi_low_vt --margin 0.05)
run(${LVTOOL} optimize ${NETLIST} -o ${WORK}/opt.lvnet)
run(${LVTOOL} stats ${WORK}/opt.lvnet)
run(${LVTOOL} gen wmul 4 -o ${WORK}/wmul.lvnet)
run(${LVTOOL} timing ${WORK}/wmul.lvnet soi_low_vt)

# Run-metrics sink: the report must land on disk and carry the schema tag.
run(${LVTOOL} simulate ${NETLIST} --vectors 200 --stats
    --stats-json ${WORK}/run_report.json)
file(READ ${WORK}/run_report.json _report)
if(NOT _report MATCHES "lv-run-report/1")
  message(FATAL_ERROR "stats json missing schema tag: ${_report}")
endif()

# Artifact store: run the same analysis twice over a private cache dir.
# The second run must hit the store (store.hits > 0 in its run report),
# and `cache stats`/`cache clear` must round-trip the entry count.
set(CACHE_DIR ${WORK}/cache)
run(${LVTOOL} power ${NETLIST} soi_low_vt --alpha 0.3 --cache-dir ${CACHE_DIR})
run(${LVTOOL} power ${NETLIST} soi_low_vt --alpha 0.3 --cache-dir ${CACHE_DIR}
    --stats-json ${WORK}/warm_report.json)
file(READ ${WORK}/warm_report.json _warm)
if(NOT _warm MATCHES "\"store\\.hits\": [1-9]")
  message(FATAL_ERROR "warm run did not hit the artifact store: ${_warm}")
endif()

function(cache_stats outvar)
  execute_process(COMMAND ${LVTOOL} cache stats --cache-dir ${CACHE_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cache stats failed (${rc}): ${out}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

cache_stats(_stats)
if(NOT _stats MATCHES "artifact store: " OR _stats MATCHES "entries: 0 ")
  message(FATAL_ERROR "cache stats reports an empty store: ${_stats}")
endif()
run(${LVTOOL} cache clear --cache-dir ${CACHE_DIR})
cache_stats(_stats)
if(NOT _stats MATCHES "entries: 0 ")
  message(FATAL_ERROR "cache clear left entries behind: ${_stats}")
endif()
