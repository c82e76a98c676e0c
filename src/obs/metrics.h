// Process-wide metrics registry: lock-free counters/gauges/histograms that
// hot paths (the thread pool, the serve batcher, the network front end)
// update in a few nanoseconds, and that benches/CLI snapshot into the
// `telemetry` section of their JSON reports. Every registered metric has a
// reader (docs/observability.md lists them).
//
// Naming convention (see docs/observability.md): dot-separated
// `<layer>.<scope>.<metric>[_<unit>]`, e.g. `par.task_s`,
// `serve.net.bytes_rx_total`, `dataset.stream.resident_peak_bytes`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rn::obs {

// Monotonic event counter. `add` is wait-free; safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written (or max-tracked) scalar.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  // Raises the gauge to v if v is larger (CAS loop; used for peaks).
  void set_max(double v);
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Histogram over fixed log-scale buckets covering [1e-9, 1e4) with
// kBucketsPerDecade buckets per decade, plus underflow (x < 1e-9, including
// zero/negatives) and overflow buckets. The geometry is fixed so every
// histogram in every process buckets identically and snapshots merge.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 5;
  static constexpr int kDecades = 13;  // 1e-9 .. 1e4
  static constexpr double kMinBound = 1e-9;
  // underflow + log buckets + overflow
  static constexpr int kNumBuckets = kBucketsPerDecade * kDecades + 2;

  // Bucket index a value lands in (0 = underflow, kNumBuckets-1 = overflow).
  static int bucket_index(double x);
  // Half-open bucket ranges: bucket i counts x in [lower(i), upper(i)).
  static double bucket_lower(int idx);
  static double bucket_upper(int idx);

  void record(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double max() const;  // largest recorded value (exact, not bucketed)
  std::uint64_t bucket_count(int idx) const {
    return counts_[static_cast<std::size_t>(idx)].load(
        std::memory_order_relaxed);
  }

  // Approximate quantile (q in [0,1]) by linear interpolation inside the
  // containing bucket; exact max caps the top. 0 when empty.
  double quantile(double q) const;

  // The same interpolation over an arbitrary bucket-count array using this
  // geometry — shared with WindowedHistogram's merged reads. `counts` must
  // have kNumBuckets entries; `exact_max` caps open-ended buckets.
  static double quantile_from_buckets(const std::uint64_t* counts,
                                      std::uint64_t total, double exact_max,
                                      double q);

  void reset();

 private:
  std::atomic<std::uint64_t> counts_[static_cast<std::size_t>(kNumBuckets)]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

class WindowedHistogram;  // see obs/window.h

// Prometheus-style exemplar: the largest sample that landed in one
// histogram bucket, tagged with the request id that produced it — so a
// quantile breach points at a concrete, traceable request.
struct Exemplar {
  int bucket = 0;          // Histogram bucket index
  double value = 0.0;      // the slowest in-bucket sample
  std::uint64_t tag = 0;   // request id (never 0 for a live exemplar)
};

// Immutable view of the registry at one point in time.
struct RegistrySnapshot {
  struct HistogramStats {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  // Sliding-window view of a windowed histogram at snapshot time.
  struct WindowStats {
    std::string name;
    double window_s = 0.0;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    // In-window exemplars (tagged records only); empty for windows whose
    // recorders never tag.
    std::vector<Exemplar> exemplars;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStats> histograms;
  std::vector<WindowStats> windows;

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,...}},
  //  "windows":{name:{window_s,count,p50,p95,p99,
  //                   exemplars:[{bucket,value,rid},...]}}}
  // The exemplars key is emitted only when non-empty (`obs diff` skips the
  // subtree — request ids are not comparable metrics).
  std::string to_json() const;
};

// Name → metric map. Lookup takes a mutex and may allocate; hot paths fetch
// the reference once and then update lock-free. Metric objects live for the
// process lifetime, so cached references survive reset().
class Registry {
 public:
  Registry();
  ~Registry();  // out-of-line: WindowedHistogram is incomplete here

  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  // Sliding-window histogram (see obs/window.h). The first call for a name
  // fixes its window geometry; later calls return the existing instance
  // and ignore the parameters.
  WindowedHistogram& windowed(std::string_view name, double window_s = 30.0,
                              int slots = 15);

  RegistrySnapshot snapshot() const;

  // Zeroes every metric's value. Registered names (and addresses) persist,
  // so references cached by hot paths stay valid. Intended for tests and
  // for benches that report per-phase deltas.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>>
      windows_;
};

}  // namespace rn::obs
