// In-process inference serving: an InferenceServer owns a loaded RouteNet
// and turns independent predict() calls into micro-batched forward passes.
//
// Request flow: submit() enqueues a Sample into a bounded queue (rejecting
// with RejectedError when full — backpressure is explicit and counted, never
// silent latency) and returns a future. Worker loops pop requests and
// coalesce them into one GraphBatch::from_samples forward pass under two
// knobs: a batch closes as soon as `max_batch` requests are pending, or when
// the oldest request has waited `batch_deadline_s`, whichever comes first.
// Merged graphs are disjoint, so batched results are bitwise identical to
// per-request predict() (serve_test locks this in).
//
// Every worker loop runs on its own std::thread for the server's lifetime,
// so a forward pass's parallel_for chunks fan out to the global `par` pool
// like any other caller's.
//
// stop() drains: accepting stops immediately (further submits reject), every
// already-queued request is still served, then workers are joined. The
// destructor calls stop().
//
// Telemetry (docs/observability.md): the serve.latency_s window (the
// adaptive policy and obs.snapshot read it); counters
// serve.requests_total / serve.rejected_total / serve.batches_total,
// process-wide across every server (stats() keeps this server's own
// served/batches); trace spans serve.batch (arg: size) with one
// serve.request (arg: id) child per coalesced request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/routenet.h"
#include "dataset/dataset.h"

namespace rn::serve {

struct ServerConfig {
  // Coalesce at most this many requests into one forward pass.
  int max_batch = 8;
  // How long a worker holds a partial batch open waiting for it to fill.
  // This is the initial value; set_batch_deadline() retunes it live (the
  // p99-adaptive policy's actuator).
  double batch_deadline_s = 0.005;
  // Pending requests beyond which submit() rejects.
  std::size_t queue_capacity = 256;
  // Worker loops executing batches; 0 = the global pool's width.
  int workers = 0;
};

// Thrown by submit() on backpressure (queue full) or after stop().
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(const std::string& what)
      : std::runtime_error(what) {}
};

// Per-request trace context threaded from the network frontend through the
// batching worker. The caller fills request_id/parent_span before submit();
// the worker writes the timing attribution before resolving the request's
// future (the promise→future handoff orders those plain writes before the
// caller's reads — no atomics needed).
struct RequestTrace {
  std::uint64_t request_id = 0;   // client wire id (never 0 when traced)
  std::uint64_t parent_span = 0;  // handler-side span the worker nests under

  // Filled by the worker:
  double queue_wait_s = 0.0;  // enqueue → batch take
  double assemble_s = 0.0;    // batch take → forward start (dequeue + gather)
  double forward_s = 0.0;     // merged forward pass
  int batch_size = 0;         // size of the batch this request rode in
};

// Cumulative counts since construction; readable at any time.
struct ServerStats {
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
};

class InferenceServer {
 public:
  // The model must outlive the server. Workers start immediately.
  InferenceServer(const core::RouteNet& model, ServerConfig cfg);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Enqueues one scenario for inference. The future resolves when a worker
  // executes the batch containing it (or carries the forward's exception).
  // Throws RejectedError when the queue is full or the server is stopping.
  // A non-null `trace` makes the worker emit per-request
  // serve.queue.wait / serve.batch.assemble / serve.forward spans (arg:
  // rid, parented under trace->parent_span), tag the latency-window
  // exemplar with the request id, and fill the trace's timing fields
  // before the future resolves.
  std::future<core::RouteNet::Prediction> submit(
      dataset::Sample sample, std::shared_ptr<RequestTrace> trace = nullptr);

  // Stops accepting, serves everything already queued, joins the workers.
  // Idempotent.
  void stop();

  // Retunes the batch deadline live (thread-safe; workers pick the new
  // value up at their next batch). This is the adaptive batching policy's
  // actuator. Throws on negative values.
  void set_batch_deadline(double seconds);
  double batch_deadline_s() const;

  // Test seam: while paused, workers take nothing off the queue, so a
  // queue-overflow test can fill it to capacity deterministically instead
  // of racing worker drain behind a long deadline. stop() overrides a
  // pause (drain still happens). Resuming wakes every worker.
  void set_paused_for_test(bool paused);

  ServerStats stats() const;
  std::size_t queue_depth() const;

 private:
  struct Request {
    Request(dataset::Sample sample_,
            std::chrono::steady_clock::time_point enqueued_, std::uint64_t id_)
        : sample(std::move(sample_)), enqueued(enqueued_), id(id_) {}

    dataset::Sample sample;
    std::promise<core::RouteNet::Prediction> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t id = 0;
    std::shared_ptr<RequestTrace> trace;  // null for untraced requests
    double enqueued_trace_s = 0.0;  // trace-timeline enqueue stamp (0 = off)
  };

  void worker_loop();
  void run_batch(std::vector<Request>& batch);

  std::chrono::steady_clock::duration current_deadline() const;

  const core::RouteNet& model_;
  ServerConfig cfg_;
  // Nanoseconds; atomic so the adaptive policy can retune it while workers
  // and submitters run.
  std::atomic<std::int64_t> deadline_ns_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  bool joined_ = false;
  std::uint64_t next_id_ = 0;

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};

  std::vector<std::thread> workers_;
};

}  // namespace rn::serve
