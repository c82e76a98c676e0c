#include "planning/whatif.h"

#include <algorithm>
#include <limits>

namespace rn::planning {

dataset::Sample scenario_to_sample(const Scenario& scenario) {
  return dataset::make_inference_sample(scenario.topology, scenario.routing,
                                        scenario.tm);
}

namespace {

// True when `other` is the reverse direction of `link`.
bool is_reverse(const topo::Link& link, const topo::Link& other) {
  return link.src == other.dst && link.dst == other.src;
}

}  // namespace

std::shared_ptr<const topo::Topology> with_link_capacity_scaled(
    const topo::Topology& topo, topo::LinkId link_id, double factor) {
  RN_CHECK(factor > 0.0, "capacity factor must be positive");
  const topo::Link& target = topo.link(link_id);
  auto out = std::make_shared<topo::Topology>(topo.name() + "+upgrade",
                                              topo.num_nodes());
  for (const topo::Link& l : topo.links()) {
    const bool affected =
        (l.src == target.src && l.dst == target.dst) || is_reverse(target, l);
    out->add_link(l.src, l.dst,
                  affected ? l.capacity_bps * factor : l.capacity_bps,
                  l.prop_delay_s);
  }
  return out;
}

std::shared_ptr<const topo::Topology> with_link_failed(
    const topo::Topology& topo, topo::LinkId link_id) {
  const topo::Link& target = topo.link(link_id);
  auto out = std::make_shared<topo::Topology>(topo.name() + "-failure",
                                              topo.num_nodes());
  for (const topo::Link& l : topo.links()) {
    const bool removed =
        (l.src == target.src && l.dst == target.dst) || is_reverse(target, l);
    if (removed) continue;
    out->add_link(l.src, l.dst, l.capacity_bps, l.prop_delay_s);
  }
  RN_CHECK(out->is_strongly_connected(),
           "failing this link would partition the network");
  return out;
}

Scenario fail_and_reroute(const Scenario& scenario, topo::LinkId link_id) {
  const topo::Topology& old = *scenario.topology;
  const topo::Link& target = old.link(link_id);
  std::shared_ptr<const topo::Topology> degraded =
      with_link_failed(old, link_id);

  // Only pairs whose path used the failed cable are re-routed; everyone
  // else keeps their exact path (link ids must be translated because
  // removal shifts them).
  routing::RoutingScheme rerouted(old.num_nodes());
  for (topo::NodeId s = 0; s < old.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < old.num_nodes(); ++d) {
      if (s == d) continue;
      const routing::Path& path = scenario.routing.path(s, d);
      bool affected = false;
      for (topo::LinkId id : path) {
        const topo::Link& l = old.link(id);
        if ((l.src == target.src && l.dst == target.dst) ||
            is_reverse(target, l)) {
          affected = true;
          break;
        }
      }
      if (affected) {
        routing::Path alt = routing::shortest_path(*degraded, s, d);
        RN_CHECK(!alt.empty(), "no surviving route");  // guarded by
                                                       // with_link_failed
        rerouted.set_path(s, d, std::move(alt));
      } else {
        routing::Path translated;
        translated.reserve(path.size());
        for (topo::LinkId id : path) {
          const topo::Link& l = old.link(id);
          const std::optional<topo::LinkId> mapped =
              degraded->find_link(l.src, l.dst);
          RN_CHECK(mapped.has_value(), "surviving link missing after edit");
          translated.push_back(*mapped);
        }
        rerouted.set_path(s, d, std::move(translated));
      }
    }
  }
  return Scenario{std::move(degraded), std::move(rerouted), scenario.tm};
}

double mean_delay(const std::vector<double>& delays) {
  RN_CHECK(!delays.empty(), "no delays to aggregate");
  double total = 0.0;
  for (double d : delays) total += d;
  return total / static_cast<double>(delays.size());
}

WhatIfEngine::WhatIfEngine(Scenario scenario, PredictDelaysFn predictor)
    : scenario_(std::move(scenario)), predictor_(std::move(predictor)) {
  RN_CHECK(predictor_ != nullptr, "null predictor");
  routing::validate_routing(*scenario_.topology, scenario_.routing);
  baseline_ = mean_delay(predictor_(scenario_));
}

std::vector<std::pair<double, topo::LinkId>>
WhatIfEngine::links_by_utilization() const {
  const std::vector<double> loads = traffic::link_loads_bps(
      *scenario_.topology, scenario_.routing, scenario_.tm);
  std::vector<std::pair<double, topo::LinkId>> util;
  for (topo::LinkId id = 0; id < scenario_.topology->num_links(); ++id) {
    // Consider each duplex cable once: keep the direction with higher load,
    // identified as the first-seen direction between the node pair.
    const topo::Link& l = scenario_.topology->link(id);
    bool duplicate = false;
    for (topo::LinkId prev = 0; prev < id; ++prev) {
      if (is_reverse(scenario_.topology->link(prev), l) ||
          (scenario_.topology->link(prev).src == l.src &&
           scenario_.topology->link(prev).dst == l.dst)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    // Use the max of the two directions' utilization as the cable's score.
    double load = loads[static_cast<std::size_t>(id)];
    for (topo::LinkId other = 0; other < scenario_.topology->num_links();
         ++other) {
      if (is_reverse(l, scenario_.topology->link(other))) {
        load = std::max(load, loads[static_cast<std::size_t>(other)]);
      }
    }
    util.emplace_back(load / l.capacity_bps, id);
  }
  std::sort(util.rbegin(), util.rend());
  return util;
}

std::vector<UpgradeOption> WhatIfEngine::rank_upgrades(
    int top_k, double capacity_factor) const {
  RN_CHECK(top_k >= 1, "top_k must be positive");
  const auto candidates = links_by_utilization();
  std::vector<UpgradeOption> options;
  const int count = std::min<int>(top_k, static_cast<int>(candidates.size()));
  for (int i = 0; i < count; ++i) {
    const auto [util, link_id] = candidates[static_cast<std::size_t>(i)];
    Scenario whatif = scenario_;
    whatif.topology = with_link_capacity_scaled(*scenario_.topology, link_id,
                                                capacity_factor);
    UpgradeOption opt;
    opt.link_id = link_id;
    opt.src = scenario_.topology->link(link_id).src;
    opt.dst = scenario_.topology->link(link_id).dst;
    opt.utilization = util;
    opt.objective = mean_delay(predictor_(whatif));
    opt.improvement = (baseline_ - opt.objective) / baseline_;
    options.push_back(opt);
  }
  std::sort(options.begin(), options.end(),
            [](const UpgradeOption& a, const UpgradeOption& b) {
              return a.improvement > b.improvement;
            });
  return options;
}

std::vector<FailureImpact> WhatIfEngine::rank_failures(int top_k) const {
  auto candidates = links_by_utilization();
  if (top_k > 0 && static_cast<int>(candidates.size()) > top_k) {
    candidates.resize(static_cast<std::size_t>(top_k));
  }
  std::vector<FailureImpact> impacts;
  for (const auto& [util, link_id] : candidates) {
    FailureImpact impact;
    impact.link_id = link_id;
    impact.src = scenario_.topology->link(link_id).src;
    impact.dst = scenario_.topology->link(link_id).dst;
    try {
      const Scenario degraded = fail_and_reroute(scenario_, link_id);
      impact.objective = mean_delay(predictor_(degraded));
      impact.degradation = (impact.objective - baseline_) / baseline_;
    } catch (const std::runtime_error&) {
      impact.disconnects = true;
      impact.objective = std::numeric_limits<double>::infinity();
      impact.degradation = std::numeric_limits<double>::infinity();
    }
    impacts.push_back(impact);
  }
  std::sort(impacts.begin(), impacts.end(),
            [](const FailureImpact& a, const FailureImpact& b) {
              return a.degradation > b.degradation;
            });
  return impacts;
}

}  // namespace rn::planning
