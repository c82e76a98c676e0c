# bench_e2e_smoke: runs every workload of BENCHMARK.json untraced and traced
# at RN_BENCH_SCALE=smoke and checks that
#   - every end_to_end and per_layer metric name is printed,
#   - ops_failed is 0 and rnbench exits 0,
#   - each trace file parses as JSON with a traceEvents array, and every
#     timed layer appears as a span in at least one of them.
#
#   cmake -DRNBENCH=path/to/rnbench -DBENCHMARK_JSON=path/to/BENCHMARK.json
#         -DWORK_DIR=work/dir -P smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var RNBENCH BENCHMARK_JSON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(READ "${BENCHMARK_JSON}" spec)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Names of the metrics in one BENCHMARK.json group.
function(metric_names group out_var)
  set(names "")
  string(JSON n LENGTH "${spec}" ${group})
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${spec}" ${group} ${i} name)
    list(APPEND names "${name}")
  endforeach()
  set(${out_var} "${names}" PARENT_SCOPE)
endfunction()

metric_names(end_to_end e2e_names)
metric_names(per_layer layer_names)

# Runs rnbench once and checks its printed report.
function(run_workload workload traced expected_names)
  set(args --workload ${workload} --seed 1 --seconds 1
           --work-dir "${WORK_DIR}/work-${workload}")
  if(traced)
    list(APPEND args --trace-out "${WORK_DIR}/${workload}.trace.json")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env RN_BENCH_SCALE=smoke "${RNBENCH}" ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${workload} (traced=${traced}) exited ${rc}:\n"
                        "${out}\n${err}")
  endif()
  if(NOT out MATCHES "\nops_failed 0 count\n")
    message(FATAL_ERROR "${workload} (traced=${traced}) failed ops:\n${out}")
  endif()
  foreach(name IN LISTS expected_names)
    string(REPLACE "." "\\." pattern "${name}")
    if(NOT out MATCHES "(^|\n)${pattern} [^\n]+\n")
      message(FATAL_ERROR "${workload} (traced=${traced}) did not print "
                          "${name}:\n${out}")
    endif()
  endforeach()
  message(STATUS "${workload} traced=${traced}: ok")
endfunction()

string(JSON n_workloads LENGTH "${spec}" workloads)
math(EXPR last "${n_workloads} - 1")
set(traces "")
foreach(i RANGE ${last})
  string(JSON workload GET "${spec}" workloads ${i} name)
  run_workload(${workload} FALSE "${e2e_names}")
  run_workload(${workload} TRUE "${layer_names}")
  file(READ "${WORK_DIR}/${workload}.trace.json" trace)
  string(JSON n_events ERROR_VARIABLE json_err LENGTH "${trace}" traceEvents)
  if(json_err)
    message(FATAL_ERROR "${workload} trace is not Chrome trace JSON: "
                        "${json_err}")
  endif()
  string(APPEND traces "${trace}")
endforeach()

# Every timed layer (the per_layer metrics ending in .busy_s) is a span.
foreach(name IN LISTS layer_names)
  if(name MATCHES "^(.+)\\.busy_s$")
    set(layer "${CMAKE_MATCH_1}")
    string(FIND "${traces}" "\"name\":\"${layer}\"" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "no ${layer} span in any trace file")
    endif()
  endif()
endforeach()
message(STATUS "bench_e2e_smoke: all workloads ok")
