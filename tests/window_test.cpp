// Tests for the sliding-window histogram (src/obs/window.h): quantile
// accuracy against an exact sort, window expiry and slot rotation through
// the deterministic record_at/stats_at seams, registry integration, and
// thread-safety of concurrent records + reads. Includes the
// acceptance lock for the live-telemetry PR: after a load ramp the sliding
// p99 must differ from the all-time p99.
#include "obs/window.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/rng.h"

namespace rn::obs {
namespace {

// Exact quantile of a sample by sorting (nearest-rank with interpolation,
// close enough for the ratio bounds used below).
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

TEST(WindowedHistogramTest, ConstructorValidatesGeometry) {
  EXPECT_THROW(WindowedHistogram(0.0, 4), std::runtime_error);
  EXPECT_THROW(WindowedHistogram(-1.0, 4), std::runtime_error);
  EXPECT_THROW(WindowedHistogram(10.0, 1), std::runtime_error);
  WindowedHistogram w(30.0, 15);
  EXPECT_DOUBLE_EQ(w.window_s(), 30.0);
  EXPECT_EQ(w.slots(), 15);
}

TEST(WindowedHistogramTest, EmptyWindowReportsZeros) {
  WindowedHistogram w(10.0, 5);
  const WindowedHistogram::Stats s = w.stats_at(100.0);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

// Log-bucket quantiles carry at most one bucket of relative error: with 5
// buckets per decade a bucket spans a factor of 10^(1/5) ~ 1.585.
TEST(WindowedHistogramTest, QuantilesMatchExactSortWithinBucketError) {
  WindowedHistogram w(60.0, 6);
  Rng rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    // Latency-shaped sample: log-uniform over [100us, 1s).
    const double x = std::pow(10.0, rng.uniform(-4.0, 0.0));
    xs.push_back(x);
    w.record_at(x, 10.0);
  }
  const WindowedHistogram::Stats s = w.stats_at(10.0);
  ASSERT_EQ(s.count, xs.size());
  constexpr double kBucketFactor = 1.5849;  // 10^(1/5)
  for (const auto& [q, est] :
       {std::pair<double, double>{0.50, s.p50},
        std::pair<double, double>{0.95, s.p95},
        std::pair<double, double>{0.99, s.p99}}) {
    const double exact = exact_quantile(xs, q);
    EXPECT_GT(est, exact / kBucketFactor) << "q=" << q;
    EXPECT_LT(est, exact * kBucketFactor) << "q=" << q;
  }
  // Mean and max are tracked exactly, not bucketed.
  double sum = 0.0;
  for (double x : xs) sum += x;
  EXPECT_NEAR(s.mean, sum / static_cast<double>(xs.size()), 1e-12);
  EXPECT_DOUBLE_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
}

// Same samples, same timestamp: the windowed view must agree with a plain
// Histogram — both run the shared quantile_from_buckets interpolation.
TEST(WindowedHistogramTest, AgreesWithAllTimeHistogramWhenNothingExpired) {
  WindowedHistogram w(30.0, 15);
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0.001, 0.101);
    w.record_at(x, 3.0);
    h.record(x);
  }
  const WindowedHistogram::Stats s = w.stats_at(3.0);
  EXPECT_EQ(s.count, h.count());
  EXPECT_DOUBLE_EQ(s.p50, h.quantile(0.50));
  EXPECT_DOUBLE_EQ(s.p95, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, h.quantile(0.99));
  EXPECT_DOUBLE_EQ(s.max, h.max());
}

TEST(WindowedHistogramTest, OldSamplesExpireOutOfTheWindow) {
  WindowedHistogram w(10.0, 5);  // 2 s slots
  for (int i = 0; i < 100; ++i) w.record_at(5.0, 1.0);
  ASSERT_EQ(w.stats_at(1.0).count, 100u);
  // Still visible near the end of the window...
  EXPECT_EQ(w.stats_at(9.9).count, 100u);
  // ...gone once their slot rotates out. (Slot-granular: epoch 0 leaves the
  // window of epoch 5, i.e. now >= 10.)
  const WindowedHistogram::Stats later = w.stats_at(20.0);
  EXPECT_EQ(later.count, 0u);
  EXPECT_DOUBLE_EQ(later.p99, 0.0);
}

// Walk many epochs so every slot is reused several times; the merged view
// must only ever contain the last `slots` spans.
TEST(WindowedHistogramTest, SlotRotationKeepsExactlyTheWindow) {
  constexpr int kSlots = 4;
  WindowedHistogram w(4.0, kSlots);  // 1 s slots
  for (int epoch = 0; epoch < 20; ++epoch) {
    const double t = static_cast<double>(epoch) + 0.5;
    w.record_at(static_cast<double>(epoch + 1), t);
    const WindowedHistogram::Stats s = w.stats_at(t);
    const int expect = std::min(epoch + 1, kSlots);
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(expect)) << "epoch " << epoch;
    // Max always comes from the newest in-window value.
    EXPECT_DOUBLE_EQ(s.max, static_cast<double>(epoch + 1));
  }
  // A reader far in the future sees nothing without any rotation having run.
  EXPECT_EQ(w.stats_at(1000.0).count, 0u);
}

// Acceptance lock: under a ramp-then-recover load the sliding-window p99
// must track "now" while the all-time histogram stays anchored to the bad
// past. This is the property the serve loop's `serve.latency_s` window
// exists for.
TEST(WindowedHistogramTest, SlidingP99DivergesFromAllTimeAfterLoadRamp) {
  WindowedHistogram window(30.0, 15);
  Histogram all_time;
  // Phase 1: overloaded — 1 s latencies.
  for (int i = 0; i < 2000; ++i) {
    window.record_at(1.0, 5.0);
    all_time.record(1.0);
  }
  // Phase 2 (after the window slid past phase 1): healthy — 1 ms.
  for (int i = 0; i < 2000; ++i) {
    window.record_at(0.001, 100.0);
    all_time.record(0.001);
  }
  const WindowedHistogram::Stats live = window.stats_at(100.0);
  EXPECT_EQ(live.count, 2000u);
  // All-time p99 still reports the overload; the window reports recovery.
  EXPECT_GT(all_time.quantile(0.99), 0.5);
  EXPECT_LT(live.p99, 0.01);
  EXPECT_GT(all_time.quantile(0.99), live.p99 * 50.0);
}

TEST(WindowedHistogramTest, ResetClearsEverySlot) {
  WindowedHistogram w(10.0, 5);
  for (int i = 0; i < 10; ++i) w.record_at(1.0, static_cast<double>(i));
  ASSERT_GT(w.stats_at(9.0).count, 0u);
  w.reset();
  EXPECT_EQ(w.stats_at(9.0).count, 0u);
}

TEST(WindowedHistogramTest, RecordUsesTheMonotonicClock) {
  WindowedHistogram w(30.0, 15);
  w.record(0.25);
  w.record(0.5);
  const WindowedHistogram::Stats s = w.stats();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.max, 0.5);
  EXPECT_GE(windowed_now_s(), 0.0);
}

TEST(WindowedHistogramTest, RegistryReturnsSameInstanceAndSnapshots) {
  Registry& reg = Registry::global();
  reg.reset();
  WindowedHistogram& w = reg.windowed("test.window_s", 20.0, 10);
  EXPECT_EQ(&w, &reg.windowed("test.window_s"));
  EXPECT_DOUBLE_EQ(w.window_s(), 20.0);
  w.record(0.125);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.windows.size(), 1u);
  EXPECT_EQ(snap.windows[0].name, "test.window_s");
  EXPECT_EQ(snap.windows[0].count, 1u);
  EXPECT_GT(snap.windows[0].p99, 0.0);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"windows\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"window_s\":20"), std::string::npos) << json;
  // Registry::reset clears windowed histograms too.
  reg.reset();
  EXPECT_EQ(w.stats().count, 0u);
}

// --- Exemplars -------------------------------------------------------------

TEST(WindowedHistogramTest, ExemplarKeepsSlowestTaggedSamplePerBucket) {
  WindowedHistogram w(30.0, 15);
  // Three samples in the same log bucket: the largest one's tag must win
  // regardless of arrival order.
  ASSERT_EQ(Histogram::bucket_index(0.010), Histogram::bucket_index(0.012));
  w.record_tagged_at(0.011, 101, 5.0);
  w.record_tagged_at(0.012, 102, 5.0);
  w.record_tagged_at(0.010, 103, 5.0);
  // A clearly different bucket gets its own exemplar.
  ASSERT_NE(Histogram::bucket_index(0.010), Histogram::bucket_index(1.0));
  w.record_tagged_at(1.0, 201, 5.0);

  const std::vector<Exemplar> ex = w.exemplars_at(5.0);
  ASSERT_EQ(ex.size(), 2u);
  // Ordered by bucket: slow bucket last.
  EXPECT_EQ(ex[0].bucket, Histogram::bucket_index(0.012));
  EXPECT_DOUBLE_EQ(ex[0].value, 0.012);
  EXPECT_EQ(ex[0].tag, 102u);
  EXPECT_EQ(ex[1].bucket, Histogram::bucket_index(1.0));
  EXPECT_DOUBLE_EQ(ex[1].value, 1.0);
  EXPECT_EQ(ex[1].tag, 201u);
}

TEST(WindowedHistogramTest, UntaggedAndNonPositiveRecordsLeaveNoExemplar) {
  WindowedHistogram w(30.0, 15);
  w.record_at(0.5, 5.0);               // untagged: counted, no exemplar
  w.record_tagged_at(0.25, 0, 5.0);    // tag 0 is the "no tag" sentinel
  w.record_tagged_at(0.0, 7, 5.0);     // underflow bucket keeps no exemplar
  w.record_tagged_at(-1.0, 8, 5.0);
  EXPECT_EQ(w.stats_at(5.0).count, 4u);
  EXPECT_TRUE(w.exemplars_at(5.0).empty());
}

TEST(WindowedHistogramTest, ExemplarsExpireWithTheirSlots) {
  WindowedHistogram w(10.0, 5);
  w.record_tagged_at(0.5, 42, 1.0);
  ASSERT_EQ(w.exemplars_at(1.0).size(), 1u);
  // Still inside the window…
  EXPECT_EQ(w.exemplars_at(9.9).size(), 1u);
  // …gone once its slot rotates out, exactly like the sample counts.
  EXPECT_TRUE(w.exemplars_at(20.0).empty());
  // A fresh tagged record after expiry starts a new exemplar set.
  w.record_tagged_at(0.25, 43, 21.0);
  const std::vector<Exemplar> ex = w.exemplars_at(21.0);
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].tag, 43u);
}

TEST(WindowedHistogramTest, RegistrySnapshotCarriesExemplars) {
  Registry& reg = Registry::global();
  reg.reset();
  WindowedHistogram& w = reg.windowed("test.exemplar_s", 20.0, 10);
  w.record_tagged(0.125, 0xBEEF);
  const RegistrySnapshot snap = reg.snapshot();
  // Registered windows persist across Registry::reset (values clear, names
  // stay), so earlier tests' windows may still be listed — find ours.
  const RegistrySnapshot::WindowStats* mine = nullptr;
  for (const RegistrySnapshot::WindowStats& ws : snap.windows) {
    if (ws.name == "test.exemplar_s") mine = &ws;
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->exemplars.size(), 1u);
  EXPECT_EQ(mine->exemplars[0].tag, 0xBEEFu);
  EXPECT_DOUBLE_EQ(mine->exemplars[0].value, 0.125);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos) << json;
  reg.reset();
}

// Concurrent writers plus a racing reader; the sanitizer sweep runs it
// under TSan. Every record lands in the live window, so the final merged count
// is exact.
TEST(WindowedHistogramTest, ConcurrentRecordsAndReadsAreSafeAndLossless) {
  WindowedHistogram w(60.0, 6);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const WindowedHistogram::Stats s = w.stats();
      ASSERT_LE(s.count,
                static_cast<std::uint64_t>(kThreads) * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&w, t] {
      for (int i = 0; i < kPerThread; ++i) {
        w.record(0.001 * static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const WindowedHistogram::Stats s = w.stats();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.max, 0.001 * kThreads);
}

}  // namespace
}  // namespace rn::obs
