# Network-serving smoke test (ctest -R serve_net_smoke): builds a tiny
# scenario + model with the real routenet CLI, starts `routenet serve
# --listen` on an ephemeral loopback TCP port in the background, and drives
# it over RNP/1 with `routenet query`: a single predict (human-readable
# table), a 4-client load-generation run, a hot reload, and a remote
# shutdown that must drain gracefully. The server's telemetry stream must
# carry the serve.net.run event, serve.net.* and serve.* counters, one
# serve.registry.swap per load/reload, and the periodic obs.snapshot
# (--stats-every-s) with the sliding-window serve latency quantiles.
#
# Observability end-to-end: both sides run with --trace-out, and the single
# predict's printed request id must appear as a span arg ("rid":N) in BOTH
# trace files — one id linking the client's serve.client.request span to
# the server's queue.wait/batch.assemble/forward decomposition. Two
# `routenet obs top --count 1` scrapes bracket the load run and the
# serve.net.requests_total counter must grow between them. Invoked with
# -DRN_CLI=<binary> -DWORK_DIR=<dir>; POSIX sh backgrounds the server.

if(NOT DEFINED RN_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRN_CLI=... -DWORK_DIR=... -P serve_net_smoke.cmake")
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

# Background the server on an ephemeral port (tcp:...:0). --address-file is
# written only after a successful bind, so polling for it doubles as the
# readiness check; the PID lets us confirm the process actually exits after
# the remote shutdown.
execute_process(
  COMMAND sh -c "'${RN_CLI}' serve --listen tcp:127.0.0.1:0 \
--model mini.model --address-file addr.txt \
--stats-every-s 0.2 --metrics-out server.jsonl \
--trace-out server_trace.json \
> server.log 2>&1 & echo $! > server.pid"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch background server (${rc})")
endif()

set(server_addr "")
foreach(attempt RANGE 100)
  if(EXISTS "${WORK_DIR}/addr.txt")
    file(READ "${WORK_DIR}/addr.txt" server_addr)
    string(STRIP "${server_addr}" server_addr)
    if(NOT server_addr STREQUAL "")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(server_addr STREQUAL "")
  file(READ "${WORK_DIR}/server.log" server_log)
  message(FATAL_ERROR "server never published its address:\n${server_log}")
endif()
message(STATUS "server listening on ${server_addr}")

# Single remote predict: the per-pair table must name the worst pair, and
# the traced round trip must print its request id (captured below for the
# cross-file trace correlation check).
run_step("${RN_CLI}" query --connect "${server_addr}" --topology net.topo
         --routing net.routes --traffic net.traffic --top 3
         --trace-out client_trace.json)
string(FIND "${step_out}" "delay" found)
if(found EQUAL -1)
  message(FATAL_ERROR "single query printed no delay table:\n${step_out}")
endif()
string(REGEX MATCH "request id ([0-9]+)" _m "${step_out}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "single query printed no request id:\n${step_out}")
endif()
set(traced_rid "${CMAKE_MATCH_1}")
message(STATUS "single predict request id ${traced_rid}")

# First live scrape (obs top over the kStatsRequest frame): one refresh,
# capturing the request counter before the load run.
run_step("${RN_CLI}" obs top "${server_addr}" --count 1)
string(REGEX MATCH "serve\\.net\\.requests_total ([0-9]+)" _m "${step_out}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "first scrape has no requests_total:\n${step_out}")
endif()
set(requests_before "${CMAKE_MATCH_1}")

# Remote load generation: 4 concurrent clients, 48 requests, all of them
# must succeed (rejected may be non-zero only under an overloaded queue,
# which this sizing cannot produce). The summary must attribute the
# server's queue-wait share of the client round trip.
run_step("${RN_CLI}" query --connect "${server_addr}" --topology net.topo
         --routing net.routes --traffic net.traffic --requests 48
         --clients 4 --metrics-out client.jsonl)
string(FIND "${step_out}" "ok 48" found)
if(found EQUAL -1)
  message(FATAL_ERROR "load run did not serve all 48 requests:\n${step_out}")
endif()
string(FIND "${step_out}" "server queue wait:" found)
if(found EQUAL -1)
  message(FATAL_ERROR "load run printed no queue-wait share:\n${step_out}")
endif()
run_step("${RN_CLI}" obs summarize client.jsonl)

# Second scrape: the served load must show up as counter growth — the
# delta `obs top` renders live.
run_step("${RN_CLI}" obs top "${server_addr}" --count 1)
string(REGEX MATCH "serve\\.net\\.requests_total ([0-9]+)" _m "${step_out}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "second scrape has no requests_total:\n${step_out}")
endif()
set(requests_after "${CMAKE_MATCH_1}")
if(NOT requests_after GREATER requests_before)
  message(FATAL_ERROR "requests_total did not grow between scrapes: "
          "${requests_before} -> ${requests_after}")
endif()
message(STATUS "scrape delta: requests_total "
        "${requests_before} -> ${requests_after}")
# The scrape also renders the model table and the latency window.
string(FIND "${step_out}" "default v" found)
if(found EQUAL -1)
  message(FATAL_ERROR "scrape is missing the model table:\n${step_out}")
endif()
string(FIND "${step_out}" "serve.latency_s" found)
if(found EQUAL -1)
  message(FATAL_ERROR "scrape is missing the latency window:\n${step_out}")
endif()

# Hot reload over the wire bumps the model to version 2.
run_step("${RN_CLI}" query --connect "${server_addr}" --reload
         --model-name default)
string(FIND "${step_out}" "version 2" found)
if(found EQUAL -1)
  message(FATAL_ERROR "reload did not report version 2:\n${step_out}")
endif()

# Remote shutdown: the server must ack, drain, and exit on its own.
run_step("${RN_CLI}" query --connect "${server_addr}" --shutdown)

file(READ "${WORK_DIR}/server.pid" server_pid)
string(STRIP "${server_pid}" server_pid)
set(server_exited FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND kill -0 "${server_pid}"
                  RESULT_VARIABLE alive
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT alive EQUAL 0)
    set(server_exited TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT server_exited)
  execute_process(COMMAND kill -9 "${server_pid}" OUTPUT_QUIET ERROR_QUIET)
  file(READ "${WORK_DIR}/server.log" server_log)
  message(FATAL_ERROR "server did not exit after remote shutdown:\n${server_log}")
endif()

# The drained server prints its final tallies and its telemetry stream
# carries the network-path events: the run summary, per-frame counters,
# the batcher's serve.* counters, and one registry swap for the initial
# load and one for the reload. The stats reporter (--stats-every-s) must
# contribute at least one obs.snapshot carrying the sliding-window serve
# latency quantiles and the tracer's loss counter (stop() emits a final
# snapshot even when the run beats the first period).
file(READ "${WORK_DIR}/server.log" server_log)
foreach(needle "listening on tcp:127.0.0.1:" "server drained:" " 0 errors")
  string(FIND "${server_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "server.log is missing '${needle}':\n${server_log}")
  endif()
endforeach()

file(READ "${WORK_DIR}/server.jsonl" metrics_log)
foreach(needle "\"kind\":\"serve.net.run\"" "\"kind\":\"serve.net.listen\""
        "serve.net.requests_total" "serve.net.responses_total"
        "serve.net.bytes_rx_total" "\"kind\":\"serve.registry.swap\""
        "\"rejected\":0"
        "serve.requests_total" "serve.batches_total"
        "\"kind\":\"obs.snapshot\"" "serve.latency_s.window_p99"
        "serve.latency_s.window_count" "trace.sampled_out")
  string(FIND "${metrics_log}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "server.jsonl is missing ${needle}")
  endif()
endforeach()
run_step("${RN_CLI}" obs summarize server.jsonl)

# End-to-end trace correlation: the request id the single predict printed
# must tag spans in BOTH trace files — the client's round-trip span and the
# server's read/decode/queue/batch/forward/write decomposition. That is the
# merged-timeline acceptance: one id, two processes, one request.
file(READ "${WORK_DIR}/client_trace.json" client_trace)
foreach(needle "serve.client.request" "\"rid\":${traced_rid}")
  string(FIND "${client_trace}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "client_trace.json is missing ${needle}")
  endif()
endforeach()
file(READ "${WORK_DIR}/server_trace.json" server_trace)
foreach(needle "serve.net.request" "serve.net.read" "serve.net.write"
        "serve.queue.wait" "serve.batch.assemble" "serve.forward"
        "\"rid\":${traced_rid}")
  string(FIND "${server_trace}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "server_trace.json is missing ${needle}")
  endif()
endforeach()
run_step("${RN_CLI}" obs trace server_trace.json)

message(STATUS "serve net smoke OK")
