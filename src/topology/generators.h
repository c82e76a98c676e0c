// Built-in and synthetic topologies.
//
// The paper trains RouteNet on the 14-node NSFNET and a 50-node synthetic
// topology, and evaluates generalization on the 24-node Geant2. Capacities
// follow the public RouteNet datasets' convention of a small set of discrete
// rates; traffic units are chosen relative to them (see rn::traffic).
#pragma once

#include <vector>

#include "topology/topology.h"
#include "util/rng.h"

namespace rn::topo {

struct GeneratorOptions {
  // Capacities assigned to duplex links, cycled deterministically by link
  // index (so a named topology is identical run to run).
  std::vector<double> capacity_options_bps = {10'000.0, 25'000.0, 40'000.0};
  double prop_delay_s = 0.0;
};

// 14-node / 21-duplex-link NSFNET T1 backbone (42 directed links).
Topology nsfnet(const GeneratorOptions& opts = {});

// 24-node / 37-duplex-link Geant2 pan-European backbone. The public dataset
// ships the graph as GML; this is a structurally equivalent hard-coded edge
// list (same node/edge counts, hub-heavy degree profile).
Topology geant2(const GeneratorOptions& opts = {});

// 17-node / 26-duplex-link GBN (German backbone) — the third topology of the
// original RouteNet evaluation (Rusek et al., SOSR 2019); useful as an extra
// unseen-size evaluation target.
Topology gbn(const GeneratorOptions& opts = {});

// Barabási–Albert preferential-attachment graph: n nodes, each newcomer
// attaches with m edges. This stands in for the paper's "50-node
// synthetically-generated topology"; seeded for reproducibility.
Topology synthetic_ba(int n, int m, Rng& rng,
                      const GeneratorOptions& opts = {});

// Erdős–Rényi G(n, p) with connectivity repair: after sampling, components
// are stitched together with extra random edges so routing always exists.
Topology synthetic_er(int n, double p, Rng& rng,
                      const GeneratorOptions& opts = {});

// Small deterministic shapes used heavily by tests and examples.
Topology line(int n, double capacity_bps = 10'000.0);
Topology ring(int n, double capacity_bps = 10'000.0);
Topology star(int leaves, double capacity_bps = 10'000.0);

}  // namespace rn::topo
