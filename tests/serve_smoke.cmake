# Serving smoke test (ctest -R serve_smoke): builds a tiny scenario + model
# with the real routenet CLI, then drives `routenet serve` end to end — once
# under normal load (every request served, serve.run + serve.* telemetry
# emitted) and once with a one-slot queue and a long deadline so backpressure
# deterministically rejects (counted, no crash). Invoked with
# -DRN_CLI=<binary> -DWORK_DIR=<dir>.

if(NOT DEFINED RN_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRN_CLI=... -DWORK_DIR=... -P serve_smoke.cmake")
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
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

run_step("${RN_CLI}" make-topology --kind ring --nodes 6 --out net.topo)
run_step("${RN_CLI}" make-routing --topology net.topo --k 2 --seed 3
         --out net.routes)
run_step("${RN_CLI}" make-traffic --topology net.topo --routing net.routes
         --kind gravity --util 0.6 --out net.traffic)
run_step("${RN_CLI}" dataset gen --topology net.topo --count 4
         --pkts-per-flow 30 --seed 5 --out mini.rnds)
run_step("${RN_CLI}" train --dataset mini.rnds --epochs 2 --batch 2 --dim 8
         --iterations 2 --out mini.model)

# Normal load: everything is served, the run event and serve.* counters land
# in the telemetry stream, and `obs summarize` accepts every line. The
# periodic stats reporter (--stats-every-s) must contribute at least one
# obs.snapshot carrying the sliding-window serve latency quantiles (stop()
# emits a final snapshot even when the run beats the first period).
run_step("${RN_CLI}" serve --model mini.model --topology net.topo
         --routing net.routes --traffic net.traffic --requests 24
         --clients 4 --batch-max 8 --batch-deadline-ms 2 --threads 2
         --stats-every-s 0.2 --metrics-out serve.jsonl)
run_step("${RN_CLI}" obs summarize serve.jsonl)

file(READ "${WORK_DIR}/serve.jsonl" serve_log)
foreach(needle "\"kind\":\"serve.run\"" "\"served\":24" "\"rejected\":0"
        "serve.batches_total" "serve.requests_total"
        "\"kind\":\"obs.snapshot\"" "serve.latency_s.window_p99"
        "serve.latency_s.window_count" "trace.sampled_out")
  string(FIND "${serve_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "serve.jsonl is missing ${needle}")
  endif()
endforeach()

# Backpressure: --force-overflow pauses the workers while submitting, so a
# one-slot queue accepts exactly 1 of 12 requests and rejects the other 11
# — an exact count, independent of scheduling, deadlines, or machine load.
run_step("${RN_CLI}" serve --model mini.model --topology net.topo
         --routing net.routes --traffic net.traffic --requests 12
         --queue-cap 1 --force-overflow --threads 1
         --metrics-out reject.jsonl)
run_step("${RN_CLI}" obs summarize reject.jsonl)

file(READ "${WORK_DIR}/reject.jsonl" reject_log)
foreach(needle "\"kind\":\"serve.run\"" "\"served\":1" "\"rejected\":11")
  string(FIND "${reject_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "reject.jsonl is missing ${needle} — the forced \
overflow must reject exactly 11 of 12 requests:\n${reject_log}")
  endif()
endforeach()

message(STATUS "serve smoke OK")
