// Wall-clock helpers for the telemetry layer: a restartable Stopwatch for
// measuring phases inline, and an RAII ScopedTimer that records its elapsed
// seconds into a registry Histogram on destruction. Both are header-only so
// hot paths pay only two steady_clock reads plus one lock-free record.
#pragma once

#include <chrono>

#include "obs/metrics.h"

namespace rn::obs {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Records once — either at scope exit or at the explicit stop() call,
// whichever comes first.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) : hist_(&hist) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  // Records the elapsed time and returns it; later calls are no-ops
  // returning the recorded duration.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_ = watch_.elapsed_s();
      hist_->record(elapsed_);
    }
    return elapsed_;
  }

 private:
  Histogram* hist_;
  Stopwatch watch_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

}  // namespace rn::obs
