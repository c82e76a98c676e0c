# Sharded-corpus end-to-end test (ctest -R dataset_shard_smoke): drives the
# real routenet CLI through the paper-scale generation workflow — four
# independent `dataset gen --shard i/4` runs, `dataset verify`, `dataset
# merge` — and proves the merged file is byte-for-byte identical to one
# unsharded run. Then trains from the streamed RNDS1 corpus, checking the
# dataset.stream.* telemetry. Finally corrupts a shard and demands
# `dataset verify` fail.
# Invoked with -DRN_CLI=<binary> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRN_CLI=... -DWORK_DIR=... -P dataset_shard_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

function(expect_fail)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "step succeeded but must fail: ${ARGN}\n${out}")
  endif()
endfunction()

function(expect_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/${a}" "${WORK_DIR}/${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

run_step("${RN_CLI}" make-topology --kind ring --nodes 6 --out net.topo)

# One unsharded RNDS1 run vs four independent shard processes.
run_step("${RN_CLI}" dataset gen --topology net.topo --count 8 --seed 5
         --pkts-per-flow 30 --out single.rnds)
foreach(i 0 1 2 3)
  run_step("${RN_CLI}" dataset gen --topology net.topo --count 8 --seed 5
           --pkts-per-flow 30 --shard ${i}/4 --out shard_${i}.rnds)
endforeach()
run_step("${RN_CLI}" dataset verify
         --inputs shard_0.rnds,shard_1.rnds,shard_2.rnds,shard_3.rnds)
run_step("${RN_CLI}" dataset merge
         --inputs shard_0.rnds,shard_1.rnds,shard_2.rnds,shard_3.rnds
         --out merged.rnds)
expect_identical(single.rnds merged.rnds "4-shard merge vs unsharded run")

# Training streams the merged shard and must report its residency
# telemetry.
run_step("${RN_CLI}" train --dataset merged.rnds --epochs 1 --batch 4 --dim 8
         --iterations 2 --threads 1 --out streamed.model
         --metrics-out streamed.jsonl)
file(READ "${WORK_DIR}/streamed.jsonl" stream_log)
foreach(needle "dataset.stream.records_read_total"
               "dataset.stream.resident_peak_bytes")
  string(FIND "${stream_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "streamed.jsonl is missing ${needle}")
  endif()
endforeach()
run_step("${RN_CLI}" obs summarize streamed.jsonl)

# info understands the shard container.
execute_process(COMMAND "${RN_CLI}" info --dataset merged.rnds
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE info_out
                ERROR_VARIABLE info_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "info --dataset merged.rnds failed: ${info_err}")
endif()
string(FIND "${info_out}" "RNDS1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "info did not identify the RNDS1 container:\n${info_out}")
endif()

# A torn/corrupted shard must fail verification, merge, and training.
file(APPEND "${WORK_DIR}/shard_2.rnds" "torn-write garbage")
expect_fail("${RN_CLI}" dataset verify
            --inputs shard_0.rnds,shard_1.rnds,shard_2.rnds,shard_3.rnds)
expect_fail("${RN_CLI}" dataset merge
            --inputs shard_0.rnds,shard_1.rnds,shard_2.rnds,shard_3.rnds
            --out merged2.rnds)
# An incomplete shard set must also be rejected.
expect_fail("${RN_CLI}" dataset verify --inputs shard_0.rnds,shard_1.rnds)

message(STATUS "dataset shard smoke OK")
