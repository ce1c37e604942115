# Storm drill (registered in tests/CMakeLists.txt). Drives skynet_cli
# through a sharded replay degraded by an injected worker stall
# (`--faults "stall:..."`). The watchdog (auto-armed when the spec has
# stall clauses) must release the parked shard, and because a recovered
# stall loses nothing (shard ingest never sheds), the report section
# must stay byte-identical to the clean sharded replay.
# Expects -DSKYNET_CLI=<path> and -DDRILL_DIR=<scratch dir>.
file(REMOVE_RECURSE "${DRILL_DIR}")
file(MAKE_DIRECTORY "${DRILL_DIR}")

function(run_cli out_var expect_code)
  execute_process(COMMAND ${SKYNET_CLI} ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE code)
  if(NOT code EQUAL expect_code)
    message(FATAL_ERROR "skynet_cli ${ARGN}: exit ${code} (wanted ${expect_code})\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(trace "${DRILL_DIR}/trace.txt")
run_cli(record_out 0 --topo tiny --seed 5 --record ${trace})
run_cli(base 0 --topo tiny --seed 5 --replay ${trace} --shards 4)

# The storm run: shard 2 parks at its 5th command. The run must complete
# (watchdog releases the stall) rather than wedge until the test times
# out. --sketch auto is
# spelled out (it is also the default): below the cardinality threshold
# the sketched counting path must be byte-invisible, so the parity diff
# against the clean replay doubles as the e2e check of that claim.
run_cli(storm 0 --topo tiny --seed 5 --replay ${trace} --shards 4 --metrics
        --sketch auto --faults "seed=7\;stall:2@5")

if(NOT storm MATCHES "watchdog on")
  message(FATAL_ERROR "storm run did not arm the watchdog:\n${storm}")
endif()
if(NOT storm MATCHES "watchdog 1 stalls, 1 recovered, 0 written off")
  message(FATAL_ERROR "storm run metrics do not show the stall recovered:\n${storm}")
endif()

# Compare everything from the incident count down: the storm run adds
# faults/metrics lines above that point, but the ranked reports must
# match byte for byte.
foreach(v base storm)
  string(FIND "${${v}}" "incidents:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no report section in ${v} output:\n${${v}}")
  endif()
  string(SUBSTRING "${${v}}" ${at} -1 ${v}_reports)
endforeach()
if(NOT base_reports STREQUAL storm_reports)
  message(FATAL_ERROR "storm reports differ from the clean sharded replay:\n"
                      "--- clean\n${base_reports}\n--- storm\n${storm_reports}")
endif()
message(STATUS "storm drill passed: stall recovered, reports identical")
