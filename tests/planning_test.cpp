#include "planning/whatif.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "queueing/queueing.h"
#include "topology/generators.h"

namespace rn::planning {
namespace {

// The analytic M/G/1 model is a deterministic, fast predictor — ideal for
// exercising the engine's mechanics without training a GNN.
PredictDelaysFn analytic_predictor() {
  return [](const Scenario& sc) {
    const queueing::QueueingPredictor predictor{traffic::TrafficModel{}};
    return predictor.predict(*sc.topology, sc.routing, sc.tm).delay_s;
  };
}

Scenario make_scenario(std::shared_ptr<const topo::Topology> topology,
                       double util, std::uint64_t seed) {
  Rng rng(seed);
  routing::RoutingScheme scheme = routing::shortest_path_routing(*topology);
  traffic::TrafficMatrix tm = traffic::uniform_traffic(
      topology->num_nodes(), 50.0, 150.0, rng);
  traffic::scale_to_max_utilization(tm, *topology, scheme, util);
  return Scenario{std::move(topology), std::move(scheme), std::move(tm)};
}

TEST(ScenarioEdits, CapacityScaleAffectsBothDirections) {
  const topo::Topology base = topo::nsfnet();
  const auto upgraded = with_link_capacity_scaled(base, 0, 2.0);
  const topo::Link& fwd = base.link(0);
  EXPECT_DOUBLE_EQ(upgraded->link(0).capacity_bps, fwd.capacity_bps * 2.0);
  const auto rev = upgraded->find_link(fwd.dst, fwd.src);
  ASSERT_TRUE(rev.has_value());
  EXPECT_DOUBLE_EQ(upgraded->link(*rev).capacity_bps,
                   base.link(*base.find_link(fwd.dst, fwd.src)).capacity_bps *
                       2.0);
  // Other links untouched; link count unchanged.
  EXPECT_EQ(upgraded->num_links(), base.num_links());
}

TEST(ScenarioEdits, FailRemovesBothDirections) {
  const topo::Topology base = topo::nsfnet();
  const auto degraded = with_link_failed(base, 0);
  EXPECT_EQ(degraded->num_links(), base.num_links() - 2);
  EXPECT_TRUE(degraded->is_strongly_connected());
  const topo::Link& gone = base.link(0);
  EXPECT_FALSE(degraded->find_link(gone.src, gone.dst).has_value());
  EXPECT_FALSE(degraded->find_link(gone.dst, gone.src).has_value());
}

TEST(ScenarioEdits, FailThrowsWhenDisconnecting) {
  // A line's middle link is a bridge.
  const topo::Topology line = topo::line(3);
  EXPECT_THROW(with_link_failed(line, 0), std::runtime_error);
}

TEST(ScenarioEdits, FailAndRerouteProducesValidRouting) {
  auto topology = std::make_shared<const topo::Topology>(topo::geant2());
  const Scenario sc = make_scenario(topology, 0.5, 1);
  const Scenario degraded = fail_and_reroute(sc, 0);
  EXPECT_NO_THROW(
      routing::validate_routing(*degraded.topology, degraded.routing));
  // Traffic matrix carried over unchanged.
  EXPECT_DOUBLE_EQ(degraded.tm.rate_by_index(3), sc.tm.rate_by_index(3));
}

TEST(ScenarioEdits, FailAndReroutePreservesUnaffectedPaths) {
  // Pairs whose route avoided the failed cable must keep the same node
  // sequence — only affected pairs are re-routed.
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  Rng rng(9);
  Scenario sc{topology,
              routing::random_k_shortest_routing(*topology, 3, rng),
              traffic::TrafficMatrix(topology->num_nodes())};
  const topo::LinkId failed = 0;
  const topo::Link& cable = topology->link(failed);
  const Scenario degraded = fail_and_reroute(sc, failed);
  int preserved = 0;
  for (topo::NodeId s = 0; s < topology->num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topology->num_nodes(); ++d) {
      if (s == d) continue;
      const auto old_nodes =
          routing::path_nodes(*topology, sc.routing.path(s, d), s);
      bool used_cable = false;
      for (std::size_t i = 0; i + 1 < old_nodes.size(); ++i) {
        if ((old_nodes[i] == cable.src && old_nodes[i + 1] == cable.dst) ||
            (old_nodes[i] == cable.dst && old_nodes[i + 1] == cable.src)) {
          used_cable = true;
          break;
        }
      }
      const auto new_nodes = routing::path_nodes(
          *degraded.topology, degraded.routing.path(s, d), s);
      if (!used_cable) {
        EXPECT_EQ(new_nodes, old_nodes) << s << "->" << d;
        ++preserved;
      } else {
        // Re-routed paths must avoid the failed cable.
        for (std::size_t i = 0; i + 1 < new_nodes.size(); ++i) {
          EXPECT_FALSE(
              (new_nodes[i] == cable.src && new_nodes[i + 1] == cable.dst) ||
              (new_nodes[i] == cable.dst && new_nodes[i + 1] == cable.src));
        }
      }
    }
  }
  EXPECT_GT(preserved, 0);
}

TEST(Objectives, MeanAndMax) {
  EXPECT_DOUBLE_EQ(mean_delay({0.1, 0.2, 0.3}), 0.2);
  EXPECT_THROW(mean_delay({}), std::runtime_error);
}

TEST(WhatIfEngine, UpgradingHotLinkImprovesAnalyticObjective) {
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  const Scenario sc = make_scenario(topology, 0.8, 2);
  const WhatIfEngine engine(sc, analytic_predictor());
  EXPECT_GT(engine.baseline_objective(), 0.0);
  const std::vector<UpgradeOption> options = engine.rank_upgrades(5, 2.5);
  ASSERT_EQ(options.size(), 5u);
  // The best option must actually improve the objective, and the list must
  // be sorted by improvement.
  EXPECT_GT(options.front().improvement, 0.0);
  for (std::size_t i = 1; i < options.size(); ++i) {
    EXPECT_GE(options[i - 1].improvement, options[i].improvement);
  }
  // Candidates are drawn from the most utilized links.
  EXPECT_GT(options.front().utilization, 0.3);
}

TEST(WhatIfEngine, FailureRankingIsSortedAndPositive) {
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  const Scenario sc = make_scenario(topology, 0.6, 3);
  const WhatIfEngine engine(sc, analytic_predictor());
  const std::vector<FailureImpact> impacts = engine.rank_failures(6);
  ASSERT_EQ(impacts.size(), 6u);
  for (std::size_t i = 1; i < impacts.size(); ++i) {
    EXPECT_GE(impacts[i - 1].degradation, impacts[i].degradation);
  }
  // Failing a loaded link and rerouting onto alternatives should hurt.
  EXPECT_GT(impacts.front().degradation, 0.0);
}

TEST(WhatIfEngine, DisconnectingFailureIsFlaggedNotThrown) {
  // star: every leaf link is a bridge, all failures disconnect.
  auto topology = std::make_shared<const topo::Topology>(topo::star(4));
  const Scenario sc = make_scenario(topology, 0.5, 4);
  const WhatIfEngine engine(sc, analytic_predictor());
  const std::vector<FailureImpact> impacts = engine.rank_failures();
  ASSERT_FALSE(impacts.empty());
  for (const FailureImpact& impact : impacts) {
    EXPECT_TRUE(impact.disconnects);
    EXPECT_TRUE(std::isinf(impact.degradation));
  }
}

TEST(WhatIfEngine, ScenarioToSampleShape) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(4));
  const Scenario sc = make_scenario(topology, 0.5, 5);
  const dataset::Sample sample = scenario_to_sample(sc);
  EXPECT_EQ(sample.num_pairs(), 12);
  EXPECT_EQ(sample.num_valid(), 12);
}

TEST(WhatIfEngine, RejectsNullPredictor) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(4));
  const Scenario sc = make_scenario(topology, 0.5, 6);
  EXPECT_THROW(WhatIfEngine(sc, nullptr), std::runtime_error);
}

}  // namespace
}  // namespace rn::planning
