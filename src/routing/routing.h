// Source-destination routing schemes.
//
// A RoutingScheme assigns every ordered node pair one loop-free path (a
// sequence of link ids). RouteNet's inputs are exactly (topology, scheme,
// traffic matrix); the dataset generator varies schemes per sample by
// drawing uniformly from each pair's k shortest paths.
#pragma once

#include <vector>

#include "topology/topology.h"
#include "util/rng.h"

namespace rn::routing {

// A path is the ordered list of directed link ids from src to dst.
using Path = std::vector<topo::LinkId>;

enum class LinkWeight {
  kHops,             // every link costs 1
  kInverseCapacity,  // favors high-capacity links
};

class RoutingScheme {
 public:
  explicit RoutingScheme(int num_nodes);

  int num_nodes() const { return num_nodes_; }
  int num_pairs() const { return num_nodes_ * (num_nodes_ - 1); }

  const Path& path(topo::NodeId s, topo::NodeId d) const;
  const Path& path_by_index(int pair_idx) const;
  void set_path(topo::NodeId s, topo::NodeId d, Path p);

  // Average path length in hops over all pairs.
  double mean_path_length() const;

 private:
  int num_nodes_;
  std::vector<Path> paths_;  // indexed by topo::pair_index
};

// Single-source shortest path tree; returns the min-cost path src→dst or an
// empty path when unreachable.
Path shortest_path(const topo::Topology& topo, topo::NodeId src,
                   topo::NodeId dst, LinkWeight weight = LinkWeight::kHops);

// Yen's algorithm: up to k loop-free shortest paths in nondecreasing cost
// order. Returns fewer when the graph has fewer distinct paths.
std::vector<Path> k_shortest_paths(const topo::Topology& topo,
                                   topo::NodeId src, topo::NodeId dst, int k,
                                   LinkWeight weight = LinkWeight::kHops);

// Deterministic all-pairs shortest-path scheme.
RoutingScheme shortest_path_routing(const topo::Topology& topo,
                                    LinkWeight weight = LinkWeight::kHops);

// Randomized scheme: for each pair, pick uniformly among its k shortest
// paths. This is how the dataset generator produces routing variety.
//
// The candidates depend only on the topology, k and the weight, so every
// pair's k_shortest_paths list is built once and kept in a process-wide,
// thread-safe memo of the 8 most recently used tables. The key is exactly
// what Yen's algorithm reads: the node count, each link's (src, dst) in
// link-id order, each link's capacity under kInverseCapacity only, k and
// the weight. The rng draws (one uniform_int per pair, row-major) are the
// same with or without a cached table, so a scheme depends only on its
// inputs and the rng state. A disconnected topology throws before any draw
// and is not cached.
RoutingScheme random_k_shortest_routing(const topo::Topology& topo, int k,
                                        Rng& rng,
                                        LinkWeight weight = LinkWeight::kHops);

// Throws if any pair's path does not start at src, end at dst, traverse
// consecutive links, or visits a node twice.
void validate_routing(const topo::Topology& topo,
                      const RoutingScheme& scheme);

// Node sequence visited by a path starting at src (src included).
std::vector<topo::NodeId> path_nodes(const topo::Topology& topo,
                                     const Path& path, topo::NodeId src);

}  // namespace rn::routing
