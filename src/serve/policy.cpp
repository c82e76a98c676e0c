#include "serve/policy.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/event.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace rn::serve {

AdaptiveBatchPolicy::AdaptiveBatchPolicy(PolicyConfig cfg, SampleFn sample,
                                         ApplyFn apply)
    : cfg_(cfg), sample_(std::move(sample)), apply_(std::move(apply)) {
  RN_CHECK(sample_ != nullptr, "policy needs a sample function");
  RN_CHECK(apply_ != nullptr, "policy needs an apply function");
  RN_CHECK(cfg_.slo_p99_s > 0.0, "SLO must be positive");
  RN_CHECK(cfg_.min_deadline_s >= 0.0, "min deadline must be >= 0");
  RN_CHECK(cfg_.max_deadline_s >= cfg_.min_deadline_s,
           "max deadline must be >= min deadline");
  RN_CHECK(cfg_.initial_deadline_s >= cfg_.min_deadline_s &&
               cfg_.initial_deadline_s <= cfg_.max_deadline_s,
           "initial deadline must lie within [min, max]");
  RN_CHECK(cfg_.increase_step_s > 0.0, "increase step must be positive");
  RN_CHECK(cfg_.decrease_factor > 0.0 && cfg_.decrease_factor < 1.0,
           "decrease factor must be in (0, 1)");
  RN_CHECK(cfg_.interval_s > 0.0, "tick interval must be positive");
  deadline_s_.store(cfg_.initial_deadline_s, std::memory_order_relaxed);
}

AdaptiveBatchPolicy::~AdaptiveBatchPolicy() { stop(); }

double AdaptiveBatchPolicy::tick() {
  std::lock_guard<std::mutex> lock(tick_mu_);
  const WindowSample obs_sample = sample_();
  const double before = deadline_s_.load(std::memory_order_relaxed);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& ticks_total =
      obs::Registry::global().counter("serve.policy.ticks_total");
  ticks_total.add();

  // No signal, no actuation: an idle (or just-started) window would read
  // p99 = 0 and ratchet the deadline to max.
  if (obs_sample.count < cfg_.min_samples) {
    holds_.fetch_add(1, std::memory_order_relaxed);
    return before;
  }

  double after;
  const bool breach = obs_sample.p99_s > cfg_.slo_p99_s;
  if (breach) {
    after = std::max(cfg_.min_deadline_s, before * cfg_.decrease_factor);
    decreases_.fetch_add(1, std::memory_order_relaxed);
  } else {
    after = std::min(cfg_.max_deadline_s, before + cfg_.increase_step_s);
    increases_.fetch_add(1, std::memory_order_relaxed);
  }
  deadline_s_.store(after, std::memory_order_relaxed);
  apply_(after);

  if (after != before && obs::EventSink::global().enabled()) {
    obs::Event ev("serve.policy.adjust");
    ev.f("action", breach ? std::string_view("decrease")
                          : std::string_view("increase"))
        .f("p99_s", obs_sample.p99_s)
        .f("window_count", obs_sample.count)
        .f("deadline_before_s", before)
        .f("deadline_after_s", after);
    obs::EventSink::global().emit(ev);
  }
  return after;
}

void AdaptiveBatchPolicy::start() {
  std::lock_guard<std::mutex> lock(mu_);
  RN_CHECK(!thread_.joinable(), "policy already started");
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void AdaptiveBatchPolicy::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    joinable = std::move(thread_);
  }
  if (joinable.joinable()) joinable.join();
  running_.store(false, std::memory_order_relaxed);
}

void AdaptiveBatchPolicy::loop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(cfg_.interval_s));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    tick();
    lock.lock();
  }
}

AdaptiveBatchPolicy::Stats AdaptiveBatchPolicy::stats() const {
  Stats s;
  s.ticks = ticks_.load(std::memory_order_relaxed);
  s.increases = increases_.load(std::memory_order_relaxed);
  s.decreases = decreases_.load(std::memory_order_relaxed);
  s.holds = holds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rn::serve
