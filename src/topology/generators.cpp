#include "topology/generators.h"

#include <algorithm>
#include <set>
#include <utility>

namespace rn::topo {

namespace {

// Adds duplex edges with capacities cycled from opts by edge order.
void add_duplex_edges(Topology& topo,
                      const std::vector<std::pair<int, int>>& edges,
                      const GeneratorOptions& opts) {
  RN_CHECK(!opts.capacity_options_bps.empty(), "no capacity options");
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double cap =
        opts.capacity_options_bps[i % opts.capacity_options_bps.size()];
    topo.add_duplex_link(edges[i].first, edges[i].second, cap,
                         opts.prop_delay_s);
  }
}

}  // namespace

Topology nsfnet(const GeneratorOptions& opts) {
  // The 14-node NSFNET T1 backbone, as used by the RouteNet datasets.
  static const std::vector<std::pair<int, int>> kEdges = {
      {0, 1}, {0, 2},  {0, 3},  {1, 2},  {1, 7},  {2, 5},   {3, 4},
      {3, 10}, {4, 5},  {4, 6},  {5, 9},  {5, 13}, {6, 7},   {7, 8},
      {8, 9}, {8, 11}, {9, 10}, {9, 12}, {10, 11}, {10, 13}, {11, 12},
  };
  Topology topo("nsfnet", 14);
  add_duplex_edges(topo, kEdges, opts);
  RN_CHECK(topo.num_links() == 42, "NSFNET must have 42 directed links");
  return topo;
}

Topology geant2(const GeneratorOptions& opts) {
  // 24 nodes / 37 duplex edges, hub-heavy like the real GEANT2 backbone.
  static const std::vector<std::pair<int, int>> kEdges = {
      {0, 1},   {0, 2},   {1, 3},   {1, 6},   {1, 9},   {2, 3},  {2, 4},
      {3, 5},   {3, 6},   {4, 7},   {5, 8},   {5, 19},  {6, 8},  {6, 9},
      {6, 14},  {7, 8},   {7, 11},  {8, 11},  {8, 12},  {8, 17}, {8, 20},
      {9, 10},  {9, 12},  {9, 13},  {11, 14}, {11, 20}, {12, 13},
      {12, 19}, {12, 21}, {14, 15}, {15, 16}, {16, 17}, {17, 18},
      {18, 21}, {19, 23}, {21, 22}, {22, 23},
  };
  Topology topo("geant2", 24);
  add_duplex_edges(topo, kEdges, opts);
  RN_CHECK(topo.num_links() == 74, "Geant2 must have 74 directed links");
  return topo;
}

Topology gbn(const GeneratorOptions& opts) {
  // 17 nodes / 26 duplex edges, ring-of-regions structure like the German
  // research backbone.
  static const std::vector<std::pair<int, int>> kEdges = {
      {0, 1},   {0, 2},   {1, 3},   {2, 3},   {2, 4},   {3, 5},  {4, 6},
      {5, 7},   {5, 8},   {6, 7},   {6, 9},   {7, 10},  {8, 11}, {9, 12},
      {10, 11}, {10, 13}, {11, 14}, {12, 13}, {12, 15}, {13, 16},
      {14, 16}, {15, 16}, {1, 5},   {4, 9},   {8, 10},  {3, 6},
  };
  Topology topo("gbn", 17);
  add_duplex_edges(topo, kEdges, opts);
  RN_CHECK(topo.num_links() == 52, "GBN must have 52 directed links");
  return topo;
}

Topology synthetic_ba(int n, int m, Rng& rng, const GeneratorOptions& opts) {
  RN_CHECK(n >= 3, "BA graph needs at least 3 nodes");
  RN_CHECK(m >= 1 && m < n, "BA attachment count out of range");
  std::vector<std::pair<int, int>> edges;
  std::vector<double> degree(static_cast<std::size_t>(n), 0.0);
  // Seed: a (m+1)-clique so early preferential picks are well defined.
  const int seed_nodes = std::min(m + 1, n);
  for (int i = 0; i < seed_nodes; ++i) {
    for (int j = i + 1; j < seed_nodes; ++j) {
      edges.emplace_back(i, j);
      degree[static_cast<std::size_t>(i)] += 1.0;
      degree[static_cast<std::size_t>(j)] += 1.0;
    }
  }
  for (int v = seed_nodes; v < n; ++v) {
    std::set<int> targets;
    while (static_cast<int>(targets.size()) < m) {
      std::vector<double> weights(static_cast<std::size_t>(v));
      for (int u = 0; u < v; ++u) {
        weights[static_cast<std::size_t>(u)] =
            targets.count(u) ? 0.0 : degree[static_cast<std::size_t>(u)] + 1.0;
      }
      targets.insert(static_cast<int>(rng.weighted_pick(weights)));
    }
    for (int u : targets) {
      edges.emplace_back(u, v);
      degree[static_cast<std::size_t>(u)] += 1.0;
      degree[static_cast<std::size_t>(v)] += 1.0;
    }
  }
  Topology topo("ba" + std::to_string(n), n);
  add_duplex_edges(topo, edges, opts);
  return topo;
}

Topology synthetic_er(int n, double p, Rng& rng,
                      const GeneratorOptions& opts) {
  RN_CHECK(n >= 2, "ER graph needs at least 2 nodes");
  RN_CHECK(p > 0.0 && p <= 1.0, "ER probability out of (0,1]");
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) edges.emplace_back(i, j);
    }
  }
  // Repair connectivity with a union-find over sampled edges, stitching
  // distinct components with random cross edges.
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    parent[static_cast<std::size_t>(find(a))] = find(b);
  };
  for (const auto& [a, b] : edges) unite(a, b);
  for (int v = 1; v < n; ++v) {
    if (find(v) != find(0)) {
      const int u = rng.uniform_int(0, v - 1);
      edges.emplace_back(u, v);
      unite(u, v);
    }
  }
  Topology topo("er" + std::to_string(n), n);
  add_duplex_edges(topo, edges, opts);
  return topo;
}

Topology line(int n, double capacity_bps) {
  RN_CHECK(n >= 2, "line needs at least 2 nodes");
  Topology topo("line" + std::to_string(n), n);
  for (int i = 0; i + 1 < n; ++i) {
    topo.add_duplex_link(i, i + 1, capacity_bps);
  }
  return topo;
}

Topology ring(int n, double capacity_bps) {
  RN_CHECK(n >= 3, "ring needs at least 3 nodes");
  Topology topo("ring" + std::to_string(n), n);
  for (int i = 0; i < n; ++i) {
    topo.add_duplex_link(i, (i + 1) % n, capacity_bps);
  }
  return topo;
}

Topology star(int leaves, double capacity_bps) {
  RN_CHECK(leaves >= 1, "star needs at least one leaf");
  Topology topo("star" + std::to_string(leaves), leaves + 1);
  for (int i = 1; i <= leaves; ++i) {
    topo.add_duplex_link(0, i, capacity_bps);
  }
  return topo;
}

}  // namespace rn::topo
