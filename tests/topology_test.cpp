#include "topology/topology.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "topology/generators.h"

namespace rn::topo {
namespace {

TEST(Topology, AddLinkBookkeeping) {
  Topology t("t", 3);
  const LinkId a = t.add_link(0, 1, 100.0, 0.001);
  const LinkId b = t.add_link(1, 2, 200.0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(t.num_links(), 2);
  EXPECT_EQ(t.link(a).dst, 1);
  EXPECT_DOUBLE_EQ(t.link(a).prop_delay_s, 0.001);
  EXPECT_EQ(t.out_degree(0), 1);
  EXPECT_EQ(t.out_degree(2), 0);
}

TEST(Topology, DuplexAddsBothDirections) {
  Topology t("t", 2);
  t.add_duplex_link(0, 1, 100.0);
  EXPECT_EQ(t.num_links(), 2);
  EXPECT_TRUE(t.find_link(0, 1).has_value());
  EXPECT_TRUE(t.find_link(1, 0).has_value());
}

TEST(Topology, RejectsInvalidLinks) {
  Topology t("t", 2);
  EXPECT_THROW(t.add_link(0, 0, 100.0), std::runtime_error);   // self loop
  EXPECT_THROW(t.add_link(0, 5, 100.0), std::runtime_error);   // bad node
  EXPECT_THROW(t.add_link(0, 1, 0.0), std::runtime_error);     // zero cap
  EXPECT_THROW(t.add_link(0, 1, 10.0, -1.0), std::runtime_error);
}

TEST(Topology, FindLinkMissing) {
  Topology t("t", 3);
  t.add_link(0, 1, 10.0);
  EXPECT_FALSE(t.find_link(1, 2).has_value());
}

TEST(Topology, BfsHops) {
  const Topology t = line(4);
  const std::vector<int> d = t.bfs_hops(0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[3], 3);
}

TEST(Topology, StronglyConnectedDetection) {
  Topology t("t", 3);
  t.add_link(0, 1, 10.0);
  t.add_link(1, 2, 10.0);
  EXPECT_FALSE(t.is_strongly_connected());
  t.add_link(2, 0, 10.0);
  EXPECT_TRUE(t.is_strongly_connected());
}

TEST(PairIndex, RoundTripsAllPairs) {
  const int n = 7;
  std::set<int> seen;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const int idx = pair_index(s, d, n);
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, n * (n - 1));
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index";
      const auto [s2, d2] = pair_from_index(idx, n);
      EXPECT_EQ(s2, s);
      EXPECT_EQ(d2, d);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), n * (n - 1));
}

TEST(PairIndex, RejectsDiagonalAndOutOfRange) {
  EXPECT_THROW(pair_index(1, 1, 4), std::runtime_error);
  EXPECT_THROW(pair_index(4, 0, 4), std::runtime_error);
  EXPECT_THROW(pair_from_index(12, 4), std::runtime_error);
}

TEST(Generators, NsfnetShape) {
  const Topology t = nsfnet();
  EXPECT_EQ(t.num_nodes(), 14);
  EXPECT_EQ(t.num_links(), 42);  // 21 duplex
  EXPECT_TRUE(t.is_strongly_connected());
}

TEST(Generators, Geant2Shape) {
  const Topology t = geant2();
  EXPECT_EQ(t.num_nodes(), 24);
  EXPECT_EQ(t.num_links(), 74);  // 37 duplex
  EXPECT_TRUE(t.is_strongly_connected());
}

TEST(Generators, GbnShape) {
  const Topology t = gbn();
  EXPECT_EQ(t.num_nodes(), 17);
  EXPECT_EQ(t.num_links(), 52);  // 26 duplex
  EXPECT_TRUE(t.is_strongly_connected());
}

TEST(Generators, Geant2MinimumDegree) {
  const Topology t = geant2();
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_GE(t.out_degree(n), 1) << "isolated node " << n;
  }
}

TEST(Generators, NamedTopologiesAreDeterministic) {
  const Topology a = nsfnet();
  const Topology b = nsfnet();
  ASSERT_EQ(a.num_links(), b.num_links());
  for (LinkId i = 0; i < a.num_links(); ++i) {
    EXPECT_EQ(a.link(i).src, b.link(i).src);
    EXPECT_EQ(a.link(i).dst, b.link(i).dst);
    EXPECT_DOUBLE_EQ(a.link(i).capacity_bps, b.link(i).capacity_bps);
  }
}

TEST(Generators, CapacityOptionsRespected) {
  GeneratorOptions opts;
  opts.capacity_options_bps = {123.0};
  const Topology t = nsfnet(opts);
  for (const Link& l : t.links()) {
    EXPECT_DOUBLE_EQ(l.capacity_bps, 123.0);
  }
}

TEST(Generators, SyntheticBaShape) {
  Rng rng(1);
  const Topology t = synthetic_ba(50, 2, rng);
  EXPECT_EQ(t.num_nodes(), 50);
  EXPECT_TRUE(t.is_strongly_connected());
  // m=2 attachment on a 3-clique: 3 + 2*(50-3) = 97 duplex edges.
  EXPECT_EQ(t.num_links(), 2 * 97);
}

TEST(Generators, SyntheticBaSeedReproducible) {
  Rng r1(9), r2(9);
  const Topology a = synthetic_ba(20, 2, r1);
  const Topology b = synthetic_ba(20, 2, r2);
  ASSERT_EQ(a.num_links(), b.num_links());
  for (LinkId i = 0; i < a.num_links(); ++i) {
    EXPECT_EQ(a.link(i).src, b.link(i).src);
    EXPECT_EQ(a.link(i).dst, b.link(i).dst);
  }
}

TEST(Generators, SyntheticErAlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Topology t = synthetic_er(16, 0.05, rng);  // sparse → needs repair
    EXPECT_TRUE(t.is_strongly_connected()) << "seed " << seed;
  }
}

TEST(Generators, SmallShapes) {
  EXPECT_EQ(ring(5).num_links(), 10);
  EXPECT_EQ(line(5).num_links(), 8);
  EXPECT_EQ(star(4).num_nodes(), 5);
  EXPECT_EQ(star(4).num_links(), 8);
}

TEST(Generators, BaDegreeSkew) {
  // Preferential attachment should concentrate degree: max degree well above
  // the mean (property-style check over several seeds).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Topology t = synthetic_ba(60, 2, rng);
    int max_deg = 0;
    double sum_deg = 0.0;
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      max_deg = std::max(max_deg, t.out_degree(n));
      sum_deg += t.out_degree(n);
    }
    const double mean_deg = sum_deg / t.num_nodes();
    EXPECT_GT(max_deg, 2.0 * mean_deg) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rn::topo
