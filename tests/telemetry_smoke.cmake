# Telemetry smoke test (ctest -R telemetry_smoke): runs the real routenet
# CLI with --metrics-out through a miniature pipeline, then uses
# `routenet obs summarize` to validate that every emitted line parses as a
# JSON telemetry record. Invoked with -DRN_CLI=<binary> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRN_CLI=... -DWORK_DIR=... -P telemetry_smoke.cmake")
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

run_step("${RN_CLI}" make-topology --kind ring --nodes 6 --out net.topo)
run_step("${RN_CLI}" make-routing --topology net.topo --k 2 --seed 3
         --out net.routes)
run_step("${RN_CLI}" make-traffic --topology net.topo --routing net.routes
         --kind gravity --util 0.6 --out net.traffic)

# Simulator telemetry: sim.run event + final metrics.snapshot.
run_step("${RN_CLI}" simulate --topology net.topo --routing net.routes
         --traffic net.traffic --pkts-per-flow 40 --metrics-out sim.jsonl)

# Trainer telemetry: per-batch and per-epoch events.
run_step("${RN_CLI}" dataset gen --topology net.topo --count 4
         --pkts-per-flow 30 --seed 5 --out mini.rnds)
run_step("${RN_CLI}" train --dataset mini.rnds --epochs 2 --batch 2 --dim 8
         --iterations 2 --out mini.model --metrics-out train.jsonl)

# `obs summarize` re-parses every line and fails on the first malformed one.
run_step("${RN_CLI}" obs summarize sim.jsonl)
run_step("${RN_CLI}" obs summarize train.jsonl)

# The trainer file must actually contain per-batch and per-epoch events,
# with the phase timings that only those events record.
file(READ "${WORK_DIR}/train.jsonl" train_log)
foreach(needle "\"kind\":\"trainer.batch\"" "\"kind\":\"trainer.epoch\""
        "\"kind\":\"metrics.snapshot\"" "\"forward_s\"" "\"backward_s\""
        "\"step_s\"" "\"epoch_s\"")
  string(FIND "${train_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "train.jsonl is missing ${needle}")
  endif()
endforeach()

file(READ "${WORK_DIR}/sim.jsonl" sim_log)
string(FIND "${sim_log}" "\"kind\":\"sim.run\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "sim.jsonl is missing the sim.run event")
endif()
# The sim.run event is telemetry's record of the run's packet accounting.
foreach(needle "\"packets_created\"" "\"peak_queue_pkts\"")
  string(FIND "${sim_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "sim.jsonl is missing ${needle}")
  endif()
endforeach()

message(STATUS "telemetry smoke OK")
