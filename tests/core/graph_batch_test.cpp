#include "core/graph_batch.h"

#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "topology/generators.h"

namespace rn::core {
namespace {

dataset::Sample tiny_sample(double delay = 0.01) {
  auto topology = std::make_shared<const topo::Topology>(topo::line(3));
  routing::RoutingScheme scheme = routing::shortest_path_routing(*topology);
  traffic::TrafficMatrix tm(3);
  for (int idx = 0; idx < topology->num_pairs(); ++idx) {
    const auto [s, d] = topo::pair_from_index(idx, 3);
    tm.set_rate_bps(s, d, 100.0 + idx);
  }
  dataset::Sample sample{topology, std::move(scheme), std::move(tm),
                         {},       {},                {},
                         0.5};
  const int pairs = topology->num_pairs();
  sample.delay_s.assign(static_cast<std::size_t>(pairs), delay);
  sample.jitter_s.assign(static_cast<std::size_t>(pairs), delay / 2);
  sample.valid.assign(static_cast<std::size_t>(pairs), 1);
  return sample;
}

TEST(GraphBatch, SingleSampleShapes) {
  const dataset::Sample s = tiny_sample();
  const dataset::Normalizer norm;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, true);
  EXPECT_EQ(b.num_links, 4);   // line(3): 2 duplex
  EXPECT_EQ(b.num_paths, 6);
  EXPECT_EQ(b.max_path_length(), 2);  // 0→2 goes through 1
  EXPECT_EQ(b.link_features.rows(), 4);
  EXPECT_EQ(b.path_features.rows(), 6);
  EXPECT_EQ(static_cast<int>(b.valid_paths.size()), 6);
  EXPECT_EQ(b.delay_targets.rows(), 6);
}

TEST(GraphBatch, PositionScheduleCoversEveryHop) {
  const dataset::Sample s = tiny_sample();
  const dataset::Normalizer norm;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, true);
  std::size_t hops = 0;
  for (const auto& bucket : b.pos_paths) hops += bucket.size();
  std::size_t expected = 0;
  for (int idx = 0; idx < s.num_pairs(); ++idx) {
    expected += s.routing.path_by_index(idx).size();
  }
  EXPECT_EQ(hops, expected);
}

TEST(GraphBatch, PathsUniqueWithinPosition) {
  const dataset::Sample s = tiny_sample();
  const dataset::Normalizer norm;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, true);
  for (const auto& bucket : b.pos_paths) {
    std::set<int> unique(bucket.begin(), bucket.end());
    EXPECT_EQ(unique.size(), bucket.size());
  }
}

TEST(GraphBatch, MergeOffsetsAreDisjoint) {
  const dataset::Sample s1 = tiny_sample();
  const dataset::Sample s2 = tiny_sample();
  const dataset::Normalizer norm;
  const GraphBatch b = GraphBatch::from_samples({&s1, &s2}, norm, true);
  EXPECT_EQ(b.num_links, 8);
  EXPECT_EQ(b.num_paths, 12);
  ASSERT_EQ(b.link_offset.size(), 2u);
  EXPECT_EQ(b.link_offset[1], 4);
  EXPECT_EQ(b.path_offset[1], 6);
  // Second sample's hops must reference links/paths >= the offsets.
  for (std::size_t pos = 0; pos < b.pos_paths.size(); ++pos) {
    for (std::size_t i = 0; i < b.pos_paths[pos].size(); ++i) {
      const int p = b.pos_paths[pos][i];
      const int l = b.pos_links[pos][i];
      EXPECT_EQ(p >= 6, l >= 4) << "path/link from different samples";
    }
  }
}

TEST(GraphBatch, InvalidPathsExcludedFromTargetsOnly) {
  dataset::Sample s = tiny_sample();
  s.valid[0] = 0;
  s.valid[3] = 0;
  const dataset::Normalizer norm;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, true);
  EXPECT_EQ(b.num_paths, 6);  // still in the graph
  EXPECT_EQ(static_cast<int>(b.valid_paths.size()), 4);
  EXPECT_EQ(b.delay_targets.rows(), 4);
}

TEST(GraphBatch, WithoutTargetsLeavesTensorsEmpty) {
  const dataset::Sample s = tiny_sample();
  const dataset::Normalizer norm;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, false);
  EXPECT_TRUE(b.valid_paths.empty());
  EXPECT_EQ(b.delay_targets.size(), 0);
}

TEST(GraphBatch, FeaturesUseNormalizerScales) {
  const dataset::Sample s = tiny_sample();
  dataset::Normalizer norm;
  norm.capacity_scale = 1e-4;
  norm.traffic_scale = 1e-2;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, false);
  EXPECT_NEAR(b.link_features.at(0, 0),
              s.topology->link(0).capacity_bps * 1e-4, 1e-6);
  EXPECT_NEAR(b.path_features.at(0, 0), s.tm.rate_by_index(0) * 1e-2, 1e-5);
}

TEST(GraphBatch, TargetsAreNormalizedLogDelays) {
  dataset::Sample s = tiny_sample(0.02);
  dataset::Normalizer norm;
  norm.log_delay_mean = -4.0;
  norm.log_delay_std = 0.5;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, true);
  EXPECT_NEAR(b.delay_targets.at(0, 0),
              (std::log(0.02) + 4.0) / 0.5, 1e-5);
}

TEST(GraphBatch, TargetsAlignWithValidPathOrder) {
  // Craft distinct delays and knock out some paths; target rows must line
  // up with valid_paths order, not with raw pair order.
  dataset::Sample s = tiny_sample();
  for (int idx = 0; idx < s.num_pairs(); ++idx) {
    s.delay_s[static_cast<std::size_t>(idx)] = 0.01 * (idx + 1);
  }
  s.valid[1] = 0;
  s.valid[4] = 0;
  dataset::Normalizer norm;  // identity transform parameters
  norm.log_delay_mean = 0.0;
  norm.log_delay_std = 1.0;
  const GraphBatch b = GraphBatch::from_samples({&s}, norm, true);
  ASSERT_EQ(b.valid_paths.size(), 4u);
  for (std::size_t i = 0; i < b.valid_paths.size(); ++i) {
    const int pair = b.valid_paths[i];
    EXPECT_NEAR(b.delay_targets.at(static_cast<int>(i), 0),
                norm.normalize_delay(0.01 * (pair + 1)), 1e-5);
  }
}

TEST(GraphBatch, EmptyBatchThrows) {
  const dataset::Normalizer norm;
  EXPECT_THROW(GraphBatch::from_samples({}, norm, true), std::runtime_error);
}

}  // namespace
}  // namespace rn::core
