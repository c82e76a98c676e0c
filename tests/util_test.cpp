#include <cmath>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace rn {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    RN_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("one is not two"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(RN_CHECK(true, "never"));
}

TEST(Welford, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 4.0, 2.0, 8.0, 5.0};
  Welford w;
  for (double x : xs) w.add(x);
  EXPECT_EQ(w.count(), 5u);
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  double var = 0.0;
  for (double x : xs) var += (x - 4.0) * (x - 4.0);
  var /= 5.0;
  EXPECT_NEAR(w.variance(), var, 1e-12);
  EXPECT_NEAR(w.stddev(), std::sqrt(var), 1e-12);
}

TEST(Welford, FewSamplesHaveZeroVariance) {
  Welford w;
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(Welford, MergeEqualsSinglePass) {
  Rng rng(3);
  Welford all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Quantile, KnownPercentiles) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Quantile, InterpolatesBetweenSamples) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 1.0}, 0.5), 0.5);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::runtime_error);
  EXPECT_THROW(quantile({1.0}, 1.5), std::runtime_error);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng rng(3);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    ++counts[rng.weighted_pick({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
}

TEST(MeanOf, Basic) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(mean_of({}), std::runtime_error);
}

}  // namespace
}  // namespace rn
