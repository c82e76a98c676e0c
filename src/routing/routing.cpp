#include "routing/routing.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <set>

namespace rn::routing {

namespace {

double link_cost(const topo::Link& l, LinkWeight weight) {
  switch (weight) {
    case LinkWeight::kHops:
      return 1.0;
    case LinkWeight::kInverseCapacity:
      return 1.0 / l.capacity_bps;
  }
  return 1.0;
}

double path_cost(const topo::Topology& topo, const Path& p,
                 LinkWeight weight) {
  double c = 0.0;
  for (topo::LinkId id : p) c += link_cost(topo.link(id), weight);
  return c;
}

// Dijkstra from src with optional banned links/nodes; returns the path to
// dst (empty when unreachable).
Path dijkstra_path(const topo::Topology& topo, topo::NodeId src,
                   topo::NodeId dst, LinkWeight weight,
                   const std::vector<char>& banned_link,
                   const std::vector<char>& banned_node) {
  const int n = topo.num_nodes();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  std::vector<topo::LinkId> prev_link(static_cast<std::size_t>(n), -1);
  using Item = std::pair<double, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == dst) break;
    for (topo::LinkId id : topo.out_links(u)) {
      if (!banned_link.empty() && banned_link[static_cast<std::size_t>(id)]) {
        continue;
      }
      const topo::Link& l = topo.link(id);
      if (!banned_node.empty() &&
          banned_node[static_cast<std::size_t>(l.dst)]) {
        continue;
      }
      const double nd = d + link_cost(l, weight);
      if (nd < dist[static_cast<std::size_t>(l.dst)]) {
        dist[static_cast<std::size_t>(l.dst)] = nd;
        prev_link[static_cast<std::size_t>(l.dst)] = id;
        pq.emplace(nd, l.dst);
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst)] == kInf) return {};
  Path path;
  for (topo::NodeId v = dst; v != src;) {
    const topo::LinkId id = prev_link[static_cast<std::size_t>(v)];
    path.push_back(id);
    v = topo.link(id).src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

RoutingScheme::RoutingScheme(int num_nodes)
    : num_nodes_(num_nodes),
      paths_(static_cast<std::size_t>(num_nodes) * (num_nodes - 1)) {
  RN_CHECK(num_nodes >= 2, "routing scheme needs at least 2 nodes");
}

const Path& RoutingScheme::path(topo::NodeId s, topo::NodeId d) const {
  return paths_[static_cast<std::size_t>(topo::pair_index(s, d, num_nodes_))];
}

const Path& RoutingScheme::path_by_index(int pair_idx) const {
  RN_CHECK(pair_idx >= 0 && pair_idx < num_pairs(), "pair index out of range");
  return paths_[static_cast<std::size_t>(pair_idx)];
}

void RoutingScheme::set_path(topo::NodeId s, topo::NodeId d, Path p) {
  paths_[static_cast<std::size_t>(topo::pair_index(s, d, num_nodes_))] =
      std::move(p);
}

double RoutingScheme::mean_path_length() const {
  double total = 0.0;
  for (const Path& p : paths_) total += static_cast<double>(p.size());
  return total / static_cast<double>(paths_.size());
}

Path shortest_path(const topo::Topology& topo, topo::NodeId src,
                   topo::NodeId dst, LinkWeight weight) {
  RN_CHECK(src != dst, "shortest_path between identical nodes");
  return dijkstra_path(topo, src, dst, weight, {}, {});
}

std::vector<Path> k_shortest_paths(const topo::Topology& topo,
                                   topo::NodeId src, topo::NodeId dst, int k,
                                   LinkWeight weight) {
  RN_CHECK(k >= 1, "k must be at least 1");
  RN_CHECK(src != dst, "k_shortest_paths between identical nodes");
  std::vector<Path> result;
  Path first = shortest_path(topo, src, dst, weight);
  if (first.empty()) return result;
  result.push_back(std::move(first));

  // Candidates ordered by (cost, path) so ties break deterministically.
  std::set<std::pair<double, Path>> candidates;
  while (static_cast<int>(result.size()) < k) {
    const Path& last = result.back();
    const std::vector<topo::NodeId> nodes = path_nodes(topo, last, src);
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      const topo::NodeId spur = nodes[i];
      const Path root(last.begin(),
                      last.begin() + static_cast<std::ptrdiff_t>(i));
      std::vector<char> banned_link(
          static_cast<std::size_t>(topo.num_links()), 0);
      for (const Path& p : result) {
        if (p.size() >= i &&
            std::equal(root.begin(), root.end(), p.begin()) &&
            p.size() > i) {
          banned_link[static_cast<std::size_t>(p[i])] = 1;
        }
      }
      std::vector<char> banned_node(
          static_cast<std::size_t>(topo.num_nodes()), 0);
      for (std::size_t j = 0; j < i; ++j) {
        banned_node[static_cast<std::size_t>(nodes[j])] = 1;
      }
      Path spur_path =
          dijkstra_path(topo, spur, dst, weight, banned_link, banned_node);
      if (spur_path.empty()) continue;
      Path total = root;
      total.insert(total.end(), spur_path.begin(), spur_path.end());
      candidates.emplace(path_cost(topo, total, weight), std::move(total));
    }
    // Pop candidates until we find one not already accepted.
    bool advanced = false;
    while (!candidates.empty()) {
      auto it = candidates.begin();
      Path best = it->second;
      candidates.erase(it);
      if (std::find(result.begin(), result.end(), best) == result.end()) {
        result.push_back(std::move(best));
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // path space exhausted
  }
  return result;
}

RoutingScheme shortest_path_routing(const topo::Topology& topo,
                                    LinkWeight weight) {
  RoutingScheme scheme(topo.num_nodes());
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      Path p = shortest_path(topo, s, d, weight);
      RN_CHECK(!p.empty(), "topology is not connected: no path " +
                               std::to_string(s) + "→" + std::to_string(d));
      scheme.set_path(s, d, std::move(p));
    }
  }
  return scheme;
}

namespace {

// Every pair's k_shortest_paths candidates, in topo::pair_index order.
using CandidateTable = std::vector<std::vector<Path>>;

// Exactly what k_shortest_paths reads: k, the weight, the node count, each
// link's endpoints in link-id order (which also fixes every out_links
// order) and, under kInverseCapacity only, each link's capacity. Capacities
// are compared by bit pattern, so 0.0 and -0.0, which cost +inf and -inf,
// never share a table.
std::vector<std::uint64_t> candidate_key(const topo::Topology& topo, int k,
                                         LinkWeight weight) {
  const bool with_capacity = weight == LinkWeight::kInverseCapacity;
  std::vector<std::uint64_t> key = {
      static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(weight),
      static_cast<std::uint64_t>(topo.num_nodes())};
  for (const topo::Link& l : topo.links()) {
    key.push_back(static_cast<std::uint64_t>(l.src));
    key.push_back(static_cast<std::uint64_t>(l.dst));
    if (with_capacity) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &l.capacity_bps, sizeof(bits));
      key.push_back(bits);
    }
  }
  return key;
}

// Throws on the first pair in row-major order that has no path, before any
// table exists, so a disconnected topology is never cached.
CandidateTable build_candidates(const topo::Topology& topo, int k,
                                LinkWeight weight) {
  CandidateTable table;
  table.reserve(static_cast<std::size_t>(topo.num_pairs()));
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      table.push_back(k_shortest_paths(topo, s, d, k, weight));
      RN_CHECK(!table.back().empty(), "topology is not connected: no path " +
                                          std::to_string(s) + "→" +
                                          std::to_string(d));
    }
  }
  return table;
}

// Process-wide memo of the most recently used candidate tables. Tables are
// built outside the lock, so concurrent misses on one topology may each run
// Yen's algorithm once; they produce equal tables and the first insert
// wins. A caller keeps its shared_ptr, so eviction never frees a table in
// use.
std::shared_ptr<const CandidateTable> candidates_for(
    const topo::Topology& topo, int k, LinkWeight weight) {
  // A topology's table is built once per process as long as no more than
  // this many (topology, k, weight) keys alternate.
  constexpr std::size_t kMaxTables = 8;
  struct Entry {
    std::vector<std::uint64_t> key;
    std::shared_ptr<const CandidateTable> table;
  };
  static std::mutex mu;
  static std::vector<Entry> entries;  // most recently used first

  std::vector<std::uint64_t> key = candidate_key(topo, k, weight);
  const auto find = [&]() -> std::shared_ptr<const CandidateTable> {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) { return e.key == key; });
    if (it == entries.end()) return nullptr;
    std::rotate(entries.begin(), it, it + 1);
    return entries.front().table;
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    if (auto hit = find()) return hit;
  }
  auto built = std::make_shared<const CandidateTable>(
      build_candidates(topo, k, weight));
  std::lock_guard<std::mutex> lock(mu);
  if (auto raced = find()) return raced;
  if (entries.size() == kMaxTables) entries.pop_back();
  entries.insert(entries.begin(), Entry{std::move(key), built});
  return built;
}

}  // namespace

RoutingScheme random_k_shortest_routing(const topo::Topology& topo, int k,
                                        Rng& rng, LinkWeight weight) {
  RoutingScheme scheme(topo.num_nodes());
  const std::shared_ptr<const CandidateTable> table =
      candidates_for(topo, k, weight);
  std::size_t idx = 0;
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      const std::vector<Path>& options = (*table)[idx++];
      const int pick =
          rng.uniform_int(0, static_cast<int>(options.size()) - 1);
      scheme.set_path(s, d, options[static_cast<std::size_t>(pick)]);
    }
  }
  return scheme;
}

void validate_routing(const topo::Topology& topo,
                      const RoutingScheme& scheme) {
  RN_CHECK(scheme.num_nodes() == topo.num_nodes(),
           "routing scheme node count mismatch");
  for (topo::NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      const Path& p = scheme.path(s, d);
      RN_CHECK(!p.empty(), "missing path for pair");
      const std::vector<topo::NodeId> nodes = path_nodes(topo, p, s);
      RN_CHECK(nodes.back() == d, "path does not terminate at destination");
      std::set<topo::NodeId> unique(nodes.begin(), nodes.end());
      RN_CHECK(unique.size() == nodes.size(), "path contains a loop");
    }
  }
}

std::vector<topo::NodeId> path_nodes(const topo::Topology& topo,
                                     const Path& path, topo::NodeId src) {
  std::vector<topo::NodeId> nodes{src};
  topo::NodeId at = src;
  for (topo::LinkId id : path) {
    const topo::Link& l = topo.link(id);
    RN_CHECK(l.src == at, "discontinuous path");
    at = l.dst;
    nodes.push_back(at);
  }
  return nodes;
}

}  // namespace rn::routing
