#include "dataset/dataset.h"

#include <cmath>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "dataset/shard.h"
#include "dataset/stream.h"
#include "topology/generators.h"

namespace rn::dataset {
namespace {

GeneratorConfig fast_config() {
  GeneratorConfig cfg;
  cfg.target_pkts_per_flow = 60.0;
  cfg.warmup_s = 0.5;
  cfg.min_delivered = 5;
  return cfg;
}

std::shared_ptr<const topo::Topology> shared_nsfnet() {
  return std::make_shared<const topo::Topology>(topo::nsfnet());
}

TEST(DatasetGenerator, SampleShapeAndValidity) {
  DatasetGenerator gen(fast_config(), 1);
  const Sample s = gen.generate(shared_nsfnet());
  EXPECT_EQ(s.num_pairs(), 14 * 13);
  EXPECT_EQ(static_cast<int>(s.jitter_s.size()), s.num_pairs());
  // Most paths must carry usable statistics.
  EXPECT_GT(s.num_valid(), s.num_pairs() / 2);
  EXPECT_GT(s.max_link_utilization, 0.0);
  EXPECT_LT(s.max_link_utilization, 1.0);
  EXPECT_NO_THROW(routing::validate_routing(*s.topology, s.routing));
}

TEST(DatasetGenerator, ValidPathsHavePositiveTargets) {
  DatasetGenerator gen(fast_config(), 2);
  const Sample s = gen.generate(shared_nsfnet());
  for (int idx = 0; idx < s.num_pairs(); ++idx) {
    if (!s.valid[static_cast<std::size_t>(idx)]) continue;
    EXPECT_GT(s.delay_s[static_cast<std::size_t>(idx)], 0.0);
    EXPECT_GE(s.jitter_s[static_cast<std::size_t>(idx)], 0.0);
  }
}

TEST(DatasetGenerator, SamplesVaryAcrossDraws) {
  DatasetGenerator gen(fast_config(), 3);
  const auto topo_ptr = shared_nsfnet();
  const Sample a = gen.generate(topo_ptr);
  const Sample b = gen.generate(topo_ptr);
  EXPECT_NE(a.tm.rate_by_index(0), b.tm.rate_by_index(0));
}

TEST(DatasetGenerator, DeterministicForSameSeed) {
  const auto topo_ptr = shared_nsfnet();
  DatasetGenerator g1(fast_config(), 7);
  DatasetGenerator g2(fast_config(), 7);
  const Sample a = g1.generate(topo_ptr);
  const Sample b = g2.generate(topo_ptr);
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.tm.rate_by_index(5), b.tm.rate_by_index(5));
}

TEST(DatasetGenerator, GenerateManyWithProgress) {
  DatasetGenerator gen(fast_config(), 4);
  int calls = 0;
  const std::vector<Sample> samples = gen.generate_many(
      shared_nsfnet(), 3, [&](std::uint64_t done, std::uint64_t total) {
        ++calls;
        EXPECT_LE(done, total);
      });
  EXPECT_EQ(samples.size(), 3u);
  EXPECT_EQ(calls, 3);
}

TEST(DatasetGenerator, GenerateRangeMatchesGenerateMany) {
  const auto topo_ptr = shared_nsfnet();
  DatasetGenerator cursor_gen(fast_config(), 21);
  const std::vector<Sample> via_many = cursor_gen.generate_many(topo_ptr, 4);
  const DatasetGenerator range_gen(fast_config(), 21);
  const std::vector<Sample> tail = range_gen.generate_range(topo_ptr, 2, 2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].delay_s, via_many[2].delay_s);
  EXPECT_EQ(tail[1].delay_s, via_many[3].delay_s);
}

TEST(Serialization, SaveIsAtomic) {
  // Saving a dataset goes through temp + rename: no *.tmp litter
  // afterwards, and an existing file is replaced wholesale, never torn.
  DatasetGenerator gen(fast_config(), 22);
  const std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 1);
  const std::string path = ::testing::TempDir() + "atomic_ds.rnds";
  const auto save = [&] {
    ShardWriter writer(path, ShardHeader{});
    for (const Sample& s : samples) writer.add(s);
    writer.finish();
  };
  save();
  save();  // overwrite must also succeed
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  EXPECT_EQ(load_dataset(path).size(), 1u);
}

TEST(DatasetGenerator, UtilizationStaysInConfiguredRange) {
  GeneratorConfig cfg = fast_config();
  cfg.min_util = 0.4;
  cfg.max_util = 0.6;
  DatasetGenerator gen(cfg, 11);
  const std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 6);
  for (const Sample& s : samples) {
    EXPECT_GE(s.max_link_utilization, 0.4);
    EXPECT_LT(s.max_link_utilization, 0.6);
  }
}

TEST(DatasetGenerator, MatrixKindsProduceDistinctShapes) {
  // Restricting to a single kind must still work, and gravity matrices have
  // every pair active while hotspot ones are skewed.
  GeneratorConfig cfg = fast_config();
  cfg.matrix_kinds = {MatrixKind::kGravity};
  DatasetGenerator gen(cfg, 12);
  const Sample s = gen.generate(shared_nsfnet());
  for (int idx = 0; idx < s.num_pairs(); ++idx) {
    EXPECT_GT(s.tm.rate_by_index(idx), 0.0);
  }
}

TEST(DatasetGenerator, MinDeliveredThresholdMarksInvalid) {
  // An absurdly high validity threshold must invalidate everything while
  // the same simulation with threshold 1 validates most paths.
  GeneratorConfig strict = fast_config();
  strict.min_delivered = 1'000'000;
  DatasetGenerator gen(strict, 13);
  const Sample s = gen.generate(shared_nsfnet());
  EXPECT_EQ(s.num_valid(), 0);
}

TEST(DatasetGenerator, BurstyTrafficModelFlowsThrough) {
  GeneratorConfig cfg = fast_config();
  cfg.model.arrivals = traffic::ArrivalProcess::kOnOff;
  cfg.model.on_fraction = 0.4;
  cfg.model.mean_on_s = 0.3;
  DatasetGenerator gen(cfg, 14);
  const Sample s = gen.generate(shared_nsfnet());
  EXPECT_GT(s.num_valid(), 0);
}

TEST(Normalizer, RoundTripsDelay) {
  Normalizer n;
  n.log_delay_mean = -2.0;
  n.log_delay_std = 0.7;
  const double z = n.normalize_delay(0.05);
  EXPECT_NEAR(n.denormalize_delay(z), 0.05, 1e-12);
}

TEST(Normalizer, LinearSpaceRoundTripsAndAllowsNegatives) {
  Normalizer n;
  n.log_space = false;
  n.log_delay_mean = 0.1;
  n.log_delay_std = 0.05;
  EXPECT_NEAR(n.denormalize_delay(n.normalize_delay(0.12)), 0.12, 1e-12);
  // Linear space can produce negative delays — the ablation's weakness.
  EXPECT_LT(n.denormalize_delay(-10.0), 0.0);
}

TEST(Normalizer, FitLinearUsesRawStatistics) {
  DatasetGenerator gen(fast_config(), 15);
  const std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 3);
  const Normalizer lin = fit_normalizer(samples, /*log_space=*/false);
  EXPECT_FALSE(lin.log_space);
  EXPECT_GT(lin.log_delay_mean, 0.0);  // raw sub-second delays are positive
  EXPECT_LT(lin.log_delay_mean, 2.0);
}

TEST(Normalizer, FitProducesZeroMeanUnitStd) {
  DatasetGenerator gen(fast_config(), 5);
  const std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 4);
  const Normalizer norm = fit_normalizer(samples);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t count = 0;
  for (const Sample& s : samples) {
    for (int idx = 0; idx < s.num_pairs(); ++idx) {
      if (!s.valid[static_cast<std::size_t>(idx)]) continue;
      const double z =
          norm.normalize_delay(s.delay_s[static_cast<std::size_t>(idx)]);
      sum += z;
      sum_sq += z * z;
      ++count;
    }
  }
  const double mean = sum / static_cast<double>(count);
  const double var = sum_sq / static_cast<double>(count) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 1e-6);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(Normalizer, ScalesInputsToOrderOne) {
  DatasetGenerator gen(fast_config(), 6);
  const std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 2);
  const Normalizer norm = fit_normalizer(samples);
  const double max_cap = samples[0].topology->max_capacity_bps();
  EXPECT_NEAR(max_cap * norm.capacity_scale, 1.0, 1e-9);
}

TEST(SplitDataset, PartitionsWithoutLoss) {
  DatasetGenerator gen(fast_config(), 8);
  std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 5);
  const auto [train, test] = split_dataset(std::move(samples), 0.6, 13);
  EXPECT_EQ(train.size(), 3u);
  EXPECT_EQ(test.size(), 2u);
}

TEST(SplitDataset, DeterministicForSeed) {
  DatasetGenerator gen(fast_config(), 9);
  std::vector<Sample> s1 = gen.generate_many(shared_nsfnet(), 4);
  std::vector<Sample> s2 = s1;
  const auto [a_train, a_test] = split_dataset(std::move(s1), 0.5, 99);
  const auto [b_train, b_test] = split_dataset(std::move(s2), 0.5, 99);
  ASSERT_EQ(a_train.size(), b_train.size());
  for (std::size_t i = 0; i < a_train.size(); ++i) {
    EXPECT_EQ(a_train[i].delay_s, b_train[i].delay_s);
  }
}

TEST(Serialization, RoundTripPreservesSamples) {
  DatasetGenerator gen(fast_config(), 10);
  const std::vector<Sample> samples = gen.generate_many(shared_nsfnet(), 2);
  const std::string path = ::testing::TempDir() + "round_trip.rnds";
  ShardWriter writer(path, ShardHeader{});
  for (const Sample& s : samples) writer.add(s);
  writer.finish();
  const std::vector<Sample> loaded = load_dataset(path);
  ASSERT_EQ(loaded.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].delay_s, samples[i].delay_s);
    EXPECT_EQ(loaded[i].jitter_s, samples[i].jitter_s);
    EXPECT_EQ(loaded[i].valid, samples[i].valid);
    EXPECT_EQ(loaded[i].topology->num_links(),
              samples[i].topology->num_links());
    EXPECT_DOUBLE_EQ(loaded[i].tm.rate_by_index(7),
                     samples[i].tm.rate_by_index(7));
    for (int idx = 0; idx < samples[i].num_pairs(); ++idx) {
      EXPECT_EQ(loaded[i].routing.path_by_index(idx),
                samples[i].routing.path_by_index(idx));
    }
  }
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/ds.rnds"), std::runtime_error);
}

TEST(GeneratorConfig, RejectsBadUtilizationRange) {
  GeneratorConfig cfg;
  cfg.min_util = 0.9;
  cfg.max_util = 0.5;
  EXPECT_THROW(DatasetGenerator(cfg, 1), std::runtime_error);
}

}  // namespace
}  // namespace rn::dataset
