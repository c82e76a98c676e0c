// What-if planning engine (paper §3: "examples leveraging the predictions
// of RouteNet for network visibility and planning").
//
// The engine answers counterfactual questions about a live scenario —
// "what if this link gets 2.5× capacity?", "what if that link fails?" —
// by editing the scenario and re-running a delay predictor, which costs a
// GNN forward pass instead of a packet-level simulation per candidate.
// Any predictor with the PredictDelaysFn signature plugs in (RouteNet, the
// analytic model, or the simulator itself for verification).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "routing/routing.h"
#include "topology/topology.h"
#include "traffic/traffic.h"

namespace rn::planning {

// A scenario is the RouteNet input triple; delays are what we ask about.
struct Scenario {
  std::shared_ptr<const topo::Topology> topology;
  routing::RoutingScheme routing;
  traffic::TrafficMatrix tm;
};

// Per-pair delay estimates for a scenario.
using PredictDelaysFn = std::function<std::vector<double>(const Scenario&)>;

// Wraps a scenario as an unlabeled dataset::Sample (all paths valid) so a
// trained RouteNet can be used as a PredictDelaysFn.
dataset::Sample scenario_to_sample(const Scenario& scenario);

// --- Scenario edits ------------------------------------------------------------

// New topology with one duplex link's capacity multiplied by `factor`
// (both directions of the physical cable identified by `link_id`).
std::shared_ptr<const topo::Topology> with_link_capacity_scaled(
    const topo::Topology& topo, topo::LinkId link_id, double factor);

// New topology with the duplex link removed entirely. Throws if removal
// disconnects the graph (no routing would exist).
std::shared_ptr<const topo::Topology> with_link_failed(
    const topo::Topology& topo, topo::LinkId link_id);

// Scenario under a failure: link removed and all pairs re-routed on the
// surviving graph via shortest paths (traffic matrix unchanged). Link ids
// change, so the routing is rebuilt from scratch.
Scenario fail_and_reroute(const Scenario& scenario, topo::LinkId link_id);

// --- Aggregate objectives ----------------------------------------------------------

// Mean per-pair delay, the default planning objective.
double mean_delay(const std::vector<double>& delays);

// --- The engine ----------------------------------------------------------------------

struct UpgradeOption {
  topo::LinkId link_id = -1;
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  double utilization = 0.0;   // offered load / capacity before the upgrade
  double objective = 0.0;     // objective value after the upgrade
  double improvement = 0.0;   // (baseline − objective) / baseline
};

struct FailureImpact {
  topo::LinkId link_id = -1;
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  double objective = 0.0;     // objective value under the failure
  double degradation = 0.0;   // (objective − baseline) / baseline
  bool disconnects = false;   // failure would partition the network
};

class WhatIfEngine {
 public:
  WhatIfEngine(Scenario scenario, PredictDelaysFn predictor);

  // Objective on the unmodified scenario.
  double baseline_objective() const { return baseline_; }

  // Evaluates upgrading each of the `top_k` most-utilized duplex links by
  // `capacity_factor`; returns options sorted by improvement (best first).
  std::vector<UpgradeOption> rank_upgrades(int top_k,
                                           double capacity_factor) const;

  // Evaluates failing every duplex link (or the `top_k` most utilized when
  // top_k > 0); returns impacts sorted by degradation (worst first).
  std::vector<FailureImpact> rank_failures(int top_k = 0) const;

 private:
  // Duplex partner of a link (reverse direction), if present.
  std::vector<std::pair<double, topo::LinkId>> links_by_utilization() const;

  Scenario scenario_;
  PredictDelaysFn predictor_;
  double baseline_ = 0.0;
};

}  // namespace rn::planning
