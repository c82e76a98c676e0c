#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "par/thread_pool.h"
#include "util/check.h"

namespace rn::serve {

namespace {

// Metric references are resolved once per process; the serve hot path only
// touches lock-free counters and the latency window. The window is what
// `obs.snapshot` and the RNP/1 stats scrape read.
struct ServeMetrics {
  obs::WindowedHistogram& latency_window =
      obs::Registry::global().windowed("serve.latency_s");
  obs::Counter& requests =
      obs::Registry::global().counter("serve.requests_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("serve.rejected_total");
  obs::Counter& batches =
      obs::Registry::global().counter("serve.batches_total");
};

ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}

}  // namespace

InferenceServer::InferenceServer(const core::RouteNet& model, ServerConfig cfg)
    : model_(model), cfg_(cfg) {
  RN_CHECK(cfg_.max_batch >= 1, "max_batch must be positive");
  RN_CHECK(cfg_.queue_capacity >= 1, "queue capacity must be positive");
  const int workers = std::max(
      1, cfg_.workers > 0 ? cfg_.workers : par::global_pool()->size());
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceServer::~InferenceServer() { stop(); }

std::future<core::RouteNet::Prediction> InferenceServer::submit(
    dataset::Sample sample, std::shared_ptr<RequestTrace> trace) {
  std::future<core::RouteNet::Prediction> fut;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics().rejected.add();
      throw RejectedError("inference server is stopping");
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      metrics().rejected.add();
      throw RejectedError("inference queue full (capacity " +
                          std::to_string(cfg_.queue_capacity) + ")");
    }
    Request req(std::move(sample), std::chrono::steady_clock::now(),
                next_id_++);
    req.trace = std::move(trace);
    if (req.trace != nullptr) req.enqueued_trace_s = obs::trace_now_s();
    fut = req.promise.get_future();
    queue_.push_back(std::move(req));
  }
  metrics().requests.add();
  cv_.notify_one();
  return fut;
}

void InferenceServer::worker_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // A pause holds the queue untouched until resume; stop() overrides it
      // so the drain still happens.
      cv_.wait(lock,
               [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) return;  // stopping and fully drained
      // Work-conserving: ship whatever is queued now, up to max_batch.
      const std::size_t take =
          std::min(queue_.size(), static_cast<std::size_t>(cfg_.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    run_batch(batch);
  }
}

void InferenceServer::run_batch(std::vector<Request>& batch) {
  obs::TraceSpan span("serve.batch");
  span.arg("size", static_cast<std::int64_t>(batch.size()));
  // Stage boundaries, on both clocks: the steady clock feeds the timing
  // attribution echoed to the client; the trace timeline feeds the
  // backdated per-request spans (queue.wait started on the handler thread,
  // so only emit_complete can represent it).
  const auto taken = std::chrono::steady_clock::now();
  const double taken_trace_s = obs::trace_now_s();
  std::vector<const dataset::Sample*> samples;
  samples.reserve(batch.size());
  for (const Request& req : batch) samples.push_back(&req.sample);
  try {
    const auto forward_start = std::chrono::steady_clock::now();
    const double forward_start_trace_s = obs::trace_now_s();
    std::vector<core::RouteNet::Prediction> preds =
        model_.predict_merged(samples);
    const auto now = std::chrono::steady_clock::now();
    const double now_trace_s = obs::trace_now_s();
    const double assemble_s =
        std::chrono::duration<double>(forward_start - taken).count();
    const double forward_s =
        std::chrono::duration<double>(now - forward_start).count();
    obs::Tracer& tracer = obs::Tracer::global();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      obs::TraceSpan req_span("serve.request", span.id());
      req_span.arg("id", static_cast<std::int64_t>(batch[i].id));
      const double latency =
          std::chrono::duration<double>(now - batch[i].enqueued).count();
      const RequestTrace* trace = batch[i].trace.get();
      if (trace != nullptr && trace->request_id != 0) {
        metrics().latency_window.record_tagged(latency, trace->request_id);
      } else {
        metrics().latency_window.record(latency);
      }
      if (trace != nullptr) {
        RequestTrace& t = *batch[i].trace;
        t.queue_wait_s =
            std::chrono::duration<double>(taken - batch[i].enqueued).count();
        t.assemble_s = assemble_s;
        t.forward_s = forward_s;
        t.batch_size = static_cast<int>(batch.size());
        const auto rid = static_cast<std::int64_t>(t.request_id);
        // One correlated per-request timeline under the handler's span:
        // queue.wait is backdated to the enqueue stamp; assemble/forward
        // are the batch-level intervals replayed per request so each rid
        // owns a complete decomposition.
        tracer.emit_complete("serve.queue.wait", t.parent_span,
                             batch[i].enqueued_trace_s,
                             taken_trace_s - batch[i].enqueued_trace_s, "rid",
                             rid);
        tracer.emit_complete("serve.batch.assemble", t.parent_span,
                             taken_trace_s,
                             forward_start_trace_s - taken_trace_s, "rid",
                             rid);
        tracer.emit_complete("serve.forward", t.parent_span,
                             forward_start_trace_s,
                             now_trace_s - forward_start_trace_s, "rid", rid);
      }
      batch[i].promise.set_value(std::move(preds[i]));
    }
    served_.fetch_add(batch.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    metrics().batches.add();
  } catch (...) {
    // A failed forward fails every request in the batch; the server keeps
    // serving subsequent batches.
    for (Request& req : batch) {
      req.promise.set_exception(std::current_exception());
    }
  }
}

void InferenceServer::set_paused_for_test(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void InferenceServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (joined_) return;
    joined_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

std::size_t InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace rn::serve
