// p99-adaptive batching policy.
//
// A batch-cap sweep in the in-process serving bench (since deleted)
// showed the fixed `batch_deadline_s` knob — not the batcher — is the
// serving bottleneck: batch-max 32 is no better than 8 because every
// partial batch waits out the same fixed deadline. `bench/serving_net`'s
// fixed vs adaptive phases gate the fix. This
// controller closes the loop using the live sliding-window p99 of
// serve.latency_s (PR 6's WindowedHistogram) against a target SLO, AIMD
// style:
//
//   p99 >  SLO  → multiplicative decrease: deadline *= decrease_factor
//                 (ship batches sooner, shed queueing latency fast)
//   p99 <= SLO  → additive increase: deadline += increase_step_s
//                 (probe for more coalescing, recover throughput slowly)
//
// The deadline is clamped to [min_deadline_s, max_deadline_s] and held
// when the window has seen fewer than min_samples requests (no signal, no
// actuation). Both inputs are injectable seams: the p99 source is a
// std::function (production wires the windowed histogram; tests feed a
// constructed trace) and tick() is the clock (production runs a background
// thread off interval_s; tests call tick() directly) — so a fixed trace
// always produces the identical deadline sequence, which policy_test locks
// in along with convergence-below-SLO and the clamps.
//
// Telemetry: counter serve.policy.ticks_total; stats() keeps the
// per-policy tick, increase, decrease and hold counts; one
// serve.policy.adjust event per deadline change.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace rn::serve {

struct PolicyConfig {
  double slo_p99_s = 0.020;         // target: windowed p99 at or below this
  double initial_deadline_s = 0.005;
  double min_deadline_s = 0.0002;
  double max_deadline_s = 0.100;
  double increase_step_s = 0.0005;  // additive increase per healthy tick
  double decrease_factor = 0.5;     // multiplicative decrease per breach
  double interval_s = 0.1;          // background tick period
  std::uint64_t min_samples = 16;   // hold below this window population
};

class AdaptiveBatchPolicy {
 public:
  // What one control step observes: the sliding-window request count and
  // p99 latency.
  struct WindowSample {
    std::uint64_t count = 0;
    double p99_s = 0.0;
  };
  using SampleFn = std::function<WindowSample()>;
  // Actuator: receives the new deadline after every adjusting tick
  // (InferenceServer::set_batch_deadline or
  // ModelRegistry::set_batch_deadline).
  using ApplyFn = std::function<void(double)>;

  AdaptiveBatchPolicy(PolicyConfig cfg, SampleFn sample, ApplyFn apply);
  ~AdaptiveBatchPolicy();

  AdaptiveBatchPolicy(const AdaptiveBatchPolicy&) = delete;
  AdaptiveBatchPolicy& operator=(const AdaptiveBatchPolicy&) = delete;

  // One deterministic control step: observe, decide, actuate. Returns the
  // deadline now in force. Thread-safe (the background loop calls exactly
  // this).
  double tick();

  // Background mode: a thread calling tick() every interval_s seconds.
  void start();
  // Joins the background thread. Idempotent; safe without start().
  void stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  double deadline_s() const {
    return deadline_s_.load(std::memory_order_relaxed);
  }
  const PolicyConfig& config() const { return cfg_; }

  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t increases = 0;
    std::uint64_t decreases = 0;
    std::uint64_t holds = 0;
  };
  Stats stats() const;

 private:
  void loop();

  PolicyConfig cfg_;
  SampleFn sample_;
  ApplyFn apply_;
  std::atomic<double> deadline_s_;

  std::mutex tick_mu_;  // serializes tick() decisions
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> increases_{0};
  std::atomic<std::uint64_t> decreases_{0};
  std::atomic<std::uint64_t> holds_{0};

  std::mutex mu_;  // background thread lifecycle
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace rn::serve
