// Seeded random-number generation used by every stochastic component
// (topology generators, traffic models, the packet simulator, NN init).
//
// All randomness in the library flows through Rng so that experiments are
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace rn {

// SplitMix64 finalizer: a cheap, statistically strong 64-bit mix.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Derives an independent seed for (base seed, named stream, element index).
// Every per-sample random decision in the dataset pipeline draws from a
// seed built this way, so the stream a sample sees depends only on its
// index — never on generation order or thread count.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t index) {
  return splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    RN_CHECK(lo <= hi, "empty integer range");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  // Exponential with the given mean (not rate).
  double exponential(double mean) {
    RN_CHECK(mean > 0.0, "exponential mean must be positive");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_pick(const std::vector<double>& weights) {
    RN_CHECK(!weights.empty(), "weighted_pick on empty weights");
    return std::discrete_distribution<std::size_t>(weights.begin(),
                                                   weights.end())(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rn
