# Bench-regression-gate smoke test (ctest -R obs_diff_smoke): runs
# bench/repro twice at the seconds-scale "smoke" tier (the second run hits
# the model/dataset cache), then drives `routenet obs diff` over the
# resulting BENCH_repro.json reports — rc 0 on an identical pair, rc 1
# on a doctored copy with a regressed wall time, rc 2 on bad usage. Invoked
# with -DRN_CLI=<routenet> -DBENCH_BIN=<repro> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED BENCH_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "usage: cmake -DRN_CLI=... -DBENCH_BIN=... -DWORK_DIR=... -P obs_diff_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{RN_BENCH_SCALE} "smoke")
set(ENV{RN_BENCH_CACHE} "${WORK_DIR}/cache")

function(run_bench)
  execute_process(COMMAND "${BENCH_BIN}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench run failed (${rc}):\n${out}\n${err}")
  endif()
endfunction()

function(run_diff expected_rc)
  execute_process(COMMAND "${RN_CLI}" obs diff ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "obs diff ${ARGN} returned ${rc}, expected ${expected_rc}\n${out}\n${err}")
  endif()
  set(diff_out "${out}" PARENT_SCOPE)
endfunction()

set(report "${WORK_DIR}/cache/BENCH_repro.json")

# First run trains the tiny model; its report becomes the baseline.
run_bench()
if(NOT EXISTS "${report}")
  message(FATAL_ERROR "bench did not write ${report}")
endif()
configure_file("${report}" "${WORK_DIR}/run_a.json" COPYONLY)

# The report must carry the stable telemetry keys the gate compares:
# histogram p99s and the sliding-window section.
file(READ "${WORK_DIR}/run_a.json" report_json)
foreach(needle "\"p99\":" "\"windows\":" "\"telemetry\":" "\"sampled_out\":")
  string(FIND "${report_json}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "BENCH report is missing the ${needle} key")
  endif()
endforeach()

# Second run replays from the cache and must produce the same schema.
run_bench()
configure_file("${report}" "${WORK_DIR}/run_b.json" COPYONLY)

# Identical reports pass the gate.
configure_file("${WORK_DIR}/run_a.json" "${WORK_DIR}/run_a_copy.json" COPYONLY)
run_diff(0 run_a.json run_a_copy.json)
string(FIND "${diff_out}" "0 regression(s)" found)
if(found EQUAL -1)
  message(FATAL_ERROR "identical diff did not report 0 regressions:\n${diff_out}")
endif()

# Run-to-run: the two reports share a comparable key set (schema stability
# across the cache-hit path). Timing jitter may legitimately gate, so only
# the exit-code class is asserted, not the verdict.
run_diff(0 run_b.json run_b.json)
execute_process(COMMAND "${RN_CLI}" obs diff run_a.json run_b.json
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc GREATER 1)
  message(FATAL_ERROR "run-to-run diff errored (${rc}):\n${out}\n${err}")
endif()
string(REGEX MATCH "[1-9][0-9]* metrics compared" compared_match "${out}")
if(compared_match STREQUAL "")
  message(FATAL_ERROR "run-to-run diff compared no metrics:\n${out}")
endif()

# A doctored candidate with a 100x wall-time regression fails the gate.
file(READ "${WORK_DIR}/run_b.json" doctored)
string(REGEX REPLACE "\"bench.wall_s\":[0-9.eE+-]+"
       "\"bench.wall_s\":99999.0" doctored "${doctored}")
string(FIND "${doctored}" "\"bench.wall_s\":99999.0" found)
if(found EQUAL -1)
  message(FATAL_ERROR "failed to doctor bench.wall_s in run_b.json")
endif()
file(WRITE "${WORK_DIR}/doctored.json" "${doctored}")
run_diff(1 run_a.json doctored.json)
string(FIND "${diff_out}" "REGRESSION" found)
if(found EQUAL -1)
  message(FATAL_ERROR "doctored diff did not flag a REGRESSION:\n${diff_out}")
endif()

# Bad usage stays distinguishable from a failed gate.
run_diff(2 run_a.json)
run_diff(1 run_a.json nonexistent.json)

message(STATUS "obs diff smoke OK")
