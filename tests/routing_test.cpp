#include "routing/routing.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "topology/generators.h"

namespace rn::routing {
namespace {

TEST(ShortestPath, LineTopology) {
  const topo::Topology t = topo::line(4);
  const Path p = shortest_path(t, 0, 3);
  ASSERT_EQ(p.size(), 3u);
  const std::vector<topo::NodeId> nodes = path_nodes(t, p, 0);
  EXPECT_EQ(nodes, (std::vector<topo::NodeId>{0, 1, 2, 3}));
}

TEST(ShortestPath, PrefersFewerHops) {
  // Triangle with a direct edge: 0→2 direct beats 0→1→2.
  topo::Topology t("t", 3);
  t.add_duplex_link(0, 1, 10.0);
  t.add_duplex_link(1, 2, 10.0);
  t.add_duplex_link(0, 2, 10.0);
  const Path p = shortest_path(t, 0, 2);
  EXPECT_EQ(p.size(), 1u);
}

TEST(ShortestPath, InverseCapacityWeightAvoidsSlowLink) {
  // Direct link is very slow; the 2-hop fast detour wins under 1/capacity.
  topo::Topology t("t", 3);
  t.add_duplex_link(0, 2, 1.0);     // slow direct
  t.add_duplex_link(0, 1, 100.0);
  t.add_duplex_link(1, 2, 100.0);
  const Path hops = shortest_path(t, 0, 2, LinkWeight::kHops);
  EXPECT_EQ(hops.size(), 1u);
  const Path inv = shortest_path(t, 0, 2, LinkWeight::kInverseCapacity);
  EXPECT_EQ(inv.size(), 2u);
}

TEST(ShortestPath, UnreachableReturnsEmpty) {
  topo::Topology t("t", 3);
  t.add_link(0, 1, 10.0);  // no path to 2
  EXPECT_TRUE(shortest_path(t, 0, 2).empty());
}

TEST(KShortestPaths, RingHasExactlyTwoDisjointRoutes) {
  const topo::Topology t = topo::ring(6);
  const std::vector<Path> ps = k_shortest_paths(t, 0, 3, 5);
  // Clockwise (3 hops) and counterclockwise (3 hops) are the only
  // loop-free simple routes in a ring.
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0].size(), 3u);
  EXPECT_EQ(ps[1].size(), 3u);
  EXPECT_NE(ps[0], ps[1]);
}

TEST(KShortestPaths, NondecreasingCost) {
  const topo::Topology t = topo::nsfnet();
  const std::vector<Path> ps = k_shortest_paths(t, 0, 9, 6);
  ASSERT_GE(ps.size(), 2u);
  for (std::size_t i = 1; i < ps.size(); ++i) {
    EXPECT_GE(ps[i].size(), ps[i - 1].size());
  }
}

TEST(KShortestPaths, AllDistinctAndValid) {
  const topo::Topology t = topo::geant2();
  const std::vector<Path> ps = k_shortest_paths(t, 2, 21, 8);
  std::set<Path> unique(ps.begin(), ps.end());
  EXPECT_EQ(unique.size(), ps.size());
  for (const Path& p : ps) {
    const std::vector<topo::NodeId> nodes = path_nodes(t, p, 2);
    EXPECT_EQ(nodes.back(), 21);
    std::set<topo::NodeId> distinct(nodes.begin(), nodes.end());
    EXPECT_EQ(distinct.size(), nodes.size()) << "loop in path";
  }
}

TEST(KShortestPaths, KOneMatchesShortest) {
  const topo::Topology t = topo::nsfnet();
  const std::vector<Path> ps = k_shortest_paths(t, 3, 8, 1);
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].size(), shortest_path(t, 3, 8).size());
}

TEST(KShortestPaths, ExhaustsPathSpaceGracefully) {
  // A line has exactly one loop-free path per pair regardless of k.
  const topo::Topology t = topo::line(5);
  const std::vector<Path> ps = k_shortest_paths(t, 0, 4, 50);
  EXPECT_EQ(ps.size(), 1u);
}

TEST(KShortestPaths, LargeKOnRingFindsBothAndOnlyBoth) {
  const topo::Topology t = topo::ring(7);
  EXPECT_EQ(k_shortest_paths(t, 1, 4, 100).size(), 2u);
}

TEST(RoutingScheme, ShortestPathRoutingValidates) {
  const topo::Topology t = topo::nsfnet();
  const RoutingScheme scheme = shortest_path_routing(t);
  EXPECT_NO_THROW(validate_routing(t, scheme));
  EXPECT_GT(scheme.mean_path_length(), 1.0);
}

TEST(RoutingScheme, RandomKShortestValidatesOnAllNamedTopologies) {
  Rng rng(5);
  for (const topo::Topology& t : {topo::nsfnet(), topo::geant2()}) {
    const RoutingScheme scheme = random_k_shortest_routing(t, 3, rng);
    EXPECT_NO_THROW(validate_routing(t, scheme));
  }
}

TEST(RoutingScheme, RandomSchemesDifferAcrossSeeds) {
  const topo::Topology t = topo::geant2();
  Rng r1(1), r2(2);
  const RoutingScheme a = random_k_shortest_routing(t, 4, r1);
  const RoutingScheme b = random_k_shortest_routing(t, 4, r2);
  int diffs = 0;
  for (int idx = 0; idx < a.num_pairs(); ++idx) {
    if (a.path_by_index(idx) != b.path_by_index(idx)) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(RoutingScheme, RandomNeverLongerThanKWorstCase) {
  // Every chosen path must still be one of the k shortest: its length can
  // exceed the shortest by only a bounded amount on these small graphs.
  const topo::Topology t = topo::nsfnet();
  Rng rng(3);
  const RoutingScheme scheme = random_k_shortest_routing(t, 3, rng);
  for (topo::NodeId s = 0; s < t.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
      if (s == d) continue;
      const std::vector<Path> ks = k_shortest_paths(t, s, d, 3);
      EXPECT_NE(std::find(ks.begin(), ks.end(), scheme.path(s, d)), ks.end());
    }
  }
}

// What random_k_shortest_routing must equal: per-pair k_shortest_paths,
// computed afresh, picked with one uniform_int per pair in row-major order.
std::vector<std::vector<Path>> reference_candidates(const topo::Topology& t,
                                                    int k, LinkWeight w) {
  std::vector<std::vector<Path>> table;
  for (topo::NodeId s = 0; s < t.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
      if (s != d) table.push_back(k_shortest_paths(t, s, d, k, w));
    }
  }
  return table;
}

RoutingScheme reference_scheme(const topo::Topology& t,
                               const std::vector<std::vector<Path>>& table,
                               Rng& rng) {
  RoutingScheme scheme(t.num_nodes());
  for (int idx = 0; idx < scheme.num_pairs(); ++idx) {
    const std::vector<Path>& options = table[static_cast<std::size_t>(idx)];
    const int pick = rng.uniform_int(0, static_cast<int>(options.size()) - 1);
    const auto [s, d] = topo::pair_from_index(idx, t.num_nodes());
    scheme.set_path(s, d, options[static_cast<std::size_t>(pick)]);
  }
  return scheme;
}

// Compares one memoized call against the reference at the same seed, and
// checks both left their rng at the same state.
::testing::AssertionResult matches_reference(
    const topo::Topology& t, int k, LinkWeight w,
    const std::vector<std::vector<Path>>& table, std::uint64_t seed) {
  Rng got_rng(seed), want_rng(seed);
  const RoutingScheme got = random_k_shortest_routing(t, k, got_rng, w);
  const RoutingScheme want = reference_scheme(t, table, want_rng);
  for (int idx = 0; idx < want.num_pairs(); ++idx) {
    if (got.path_by_index(idx) != want.path_by_index(idx)) {
      return ::testing::AssertionFailure()
             << t.name() << " k=" << k << " pair " << idx << " differs";
    }
  }
  if (got_rng.uniform_int(0, 1 << 30) != want_rng.uniform_int(0, 1 << 30)) {
    return ::testing::AssertionFailure() << t.name() << " rng state differs";
  }
  return ::testing::AssertionSuccess();
}

// A copy of t whose links are added in `order`, with link `changed` (an id
// of t) given capacity `capacity_bps`.
topo::Topology relinked(const topo::Topology& t,
                        const std::vector<topo::LinkId>& order,
                        topo::LinkId changed = -1,
                        double capacity_bps = 0.0) {
  topo::Topology out(t.name() + "'", t.num_nodes());
  for (topo::LinkId id : order) {
    const topo::Link& l = t.link(id);
    out.add_link(l.src, l.dst, id == changed ? capacity_bps : l.capacity_bps,
                 l.prop_delay_s);
  }
  return out;
}

std::vector<topo::LinkId> identity_order(const topo::Topology& t) {
  std::vector<topo::LinkId> order(static_cast<std::size_t>(t.num_links()));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(RandomKShortestMemo, EqualsPerPairYenOnEveryTopologyKAndWeight) {
  std::vector<topo::Topology> topologies = {topo::nsfnet(), topo::geant2(),
                                            topo::gbn()};
  {
    Rng rng(50);  // the ba50 topology of the CLI and the benches
    topologies.push_back(topo::synthetic_ba(50, 2, rng));
  }
  for (const int n : {12, 20, 30}) {
    Rng rng(static_cast<std::uint64_t>(1000 + n));
    topologies.push_back(topo::synthetic_ba(n, n == 20 ? 3 : 2, rng));
  }
  for (const topo::Topology& t : topologies) {
    for (const LinkWeight w :
         {LinkWeight::kHops, LinkWeight::kInverseCapacity}) {
      for (const int k : {1, 2, 3, 5}) {
        const auto table = reference_candidates(t, k, w);
        // The first call may build the table, the second must reuse it.
        EXPECT_TRUE(matches_reference(t, k, w, table, 11));
        EXPECT_TRUE(matches_reference(t, k, w, table, 12));
      }
    }
  }
}

TEST(RandomKShortestMemo, OneCapacityApartIsADifferentTopology) {
  const topo::Topology base = topo::nsfnet();
  const LinkWeight w = LinkWeight::kInverseCapacity;
  // Link 0 nearly unusable under 1/capacity: its pairs reroute.
  const topo::Topology slow =
      relinked(base, identity_order(base), /*changed=*/0, 1e-3);
  const auto base_table = reference_candidates(base, 3, w);
  const auto slow_table = reference_candidates(slow, 3, w);
  ASSERT_NE(base_table, slow_table);
  EXPECT_TRUE(matches_reference(base, 3, w, base_table, 1));
  EXPECT_TRUE(matches_reference(slow, 3, w, slow_table, 1));
  EXPECT_TRUE(matches_reference(base, 3, w, base_table, 2));
  // Under kHops the capacity is not read, so both share one answer.
  EXPECT_TRUE(matches_reference(slow, 3, LinkWeight::kHops,
                                reference_candidates(base, 3,
                                                     LinkWeight::kHops),
                                3));
}

TEST(RandomKShortestMemo, LinkOrderIsPartOfTheTopology) {
  const topo::Topology base = topo::geant2();
  std::vector<topo::LinkId> order = identity_order(base);
  std::reverse(order.begin(), order.end());
  const topo::Topology reversed = relinked(base, order);
  const auto base_table = reference_candidates(base, 2, LinkWeight::kHops);
  const auto rev_table = reference_candidates(reversed, 2, LinkWeight::kHops);
  ASSERT_NE(base_table, rev_table);
  EXPECT_TRUE(matches_reference(base, 2, LinkWeight::kHops, base_table, 4));
  EXPECT_TRUE(matches_reference(reversed, 2, LinkWeight::kHops, rev_table, 4));
  EXPECT_TRUE(matches_reference(base, 2, LinkWeight::kHops, base_table, 5));
}

TEST(RandomKShortestMemo, MoreTopologiesThanTheMemoHoldsStayCorrect) {
  // Twelve keys, more than the memo keeps, visited twice in the same order:
  // the second round evicts every table before it is reused.
  std::vector<topo::Topology> topologies;
  for (int i = 0; i < 12; ++i) {
    Rng rng(static_cast<std::uint64_t>(2000 + i));
    topologies.push_back(topo::synthetic_ba(10, 2, rng));
  }
  std::vector<std::vector<std::vector<Path>>> tables;
  for (const topo::Topology& t : topologies) {
    tables.push_back(reference_candidates(t, 3, LinkWeight::kHops));
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < topologies.size(); ++i) {
      EXPECT_TRUE(matches_reference(topologies[i], 3, LinkWeight::kHops,
                                    tables[i], 7 + i))
          << "round " << round;
    }
  }
}

TEST(RandomKShortestMemo, ConcurrentCallersMatchTheReference) {
  // Ten keys across four threads: misses, hits and evictions interleave.
  struct Case {
    topo::Topology topology;
    int k;
    LinkWeight weight;
    std::vector<std::vector<Path>> table;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 5; ++i) {
    Rng rng(static_cast<std::uint64_t>(3000 + i));
    topo::Topology t = topo::synthetic_ba(12, 2, rng);
    for (const LinkWeight w :
         {LinkWeight::kHops, LinkWeight::kInverseCapacity}) {
      cases.push_back({t, 2, w, reference_candidates(t, 2, w)});
    }
  }
  std::vector<int> failures(4, 0);
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t j = 0; j < cases.size(); ++j) {
          const Case& c = cases[(j + static_cast<std::size_t>(tid)) %
                                cases.size()];
          if (!matches_reference(c.topology, c.k, c.weight, c.table,
                                 static_cast<std::uint64_t>(tid * 100 + rep))) {
            ++failures[static_cast<std::size_t>(tid)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

TEST(RandomKShortestMemo, DisconnectedTopologyThrowsEveryTime) {
  topo::Topology t("split", 4);
  t.add_duplex_link(0, 1, 10.0);
  t.add_duplex_link(2, 3, 10.0);
  for (int attempt = 0; attempt < 2; ++attempt) {
    Rng rng(1);
    try {
      random_k_shortest_routing(t, 2, rng);
      FAIL() << "disconnected topology routed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "topology is not connected: no path 0→2"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ValidateRouting, CatchesCorruptPath) {
  const topo::Topology t = topo::ring(4);
  RoutingScheme scheme = shortest_path_routing(t);
  // Corrupt one entry with a discontinuous link sequence.
  Path bad = scheme.path(0, 2);
  std::reverse(bad.begin(), bad.end());
  scheme.set_path(0, 2, bad);
  EXPECT_THROW(validate_routing(t, scheme), std::runtime_error);
}

TEST(PathNodes, RejectsDiscontinuity) {
  const topo::Topology t = topo::line(4);
  // Link 0 is 0→1; link for 2→3 does not start at 1.
  const auto l23 = t.find_link(2, 3);
  ASSERT_TRUE(l23.has_value());
  const Path broken = {0, *l23};
  EXPECT_THROW(path_nodes(t, broken, 0), std::runtime_error);
}

}  // namespace
}  // namespace rn::routing
