// Network planning with a learned model (paper §3: "examples leveraging the
// predictions of RouteNet for network visibility and planning").
//
// Uses the planning::WhatIfEngine with a trained RouteNet as its predictor:
//   * rank candidate link upgrades (milliseconds per candidate, vs. a full
//     packet simulation each), then verify the winner with one simulation;
//   * rank single-link failures by predicted impact after re-routing.
#include <cstdio>
#include <memory>

#include "core/trainer.h"
#include "planning/whatif.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "util/stats.h"

int main() {
  using namespace rn;
  auto nsf = std::make_shared<const topo::Topology>(topo::nsfnet());

  // Train on loaded scenarios — planning matters when the network is hot.
  dataset::GeneratorConfig gcfg;
  gcfg.k_paths = 2;
  gcfg.target_pkts_per_flow = 80.0;
  gcfg.warmup_s = 1.0;
  gcfg.min_util = 0.55;
  gcfg.max_util = 0.8;
  dataset::DatasetGenerator gen(gcfg, 9);
  std::printf("generating 20 loaded NSFNET scenarios for training...\n");
  const std::vector<dataset::Sample> train = gen.generate_many(nsf, 20);

  core::RouteNet model(core::RouteNetConfig{});
  core::TrainConfig tcfg;
  tcfg.epochs = 14;
  tcfg.batch_size = 4;
  tcfg.learning_rate = 4e-3f;
  core::Trainer trainer(model, tcfg);
  std::printf("training...\n");
  trainer.fit(train);

  // The congested scenario we must improve. Planning assumes a
  // shortest-path IGP, so the baseline routing uses the same policy the
  // failure re-router applies (comparing unlike routing policies would
  // skew the what-ifs).
  const dataset::Sample congested = gen.generate(nsf);
  planning::Scenario scenario{congested.topology,
                              routing::shortest_path_routing(*nsf),
                              congested.tm};
  traffic::scale_to_max_utilization(scenario.tm, *nsf, scenario.routing,
                                    0.75);
  const planning::PredictDelaysFn predictor =
      [&model](const planning::Scenario& sc) {
        return model.predict(planning::scenario_to_sample(sc)).delay_s;
      };
  const planning::WhatIfEngine engine(scenario, predictor);
  std::printf("\nbaseline mean predicted delay: %.3f ms\n",
              engine.baseline_objective() * 1e3);

  // --- Candidate upgrades ----------------------------------------------------
  std::printf("\n=== what-if: upgrade one cable to 2.5x capacity ===\n");
  std::printf("%10s %8s %18s %10s\n", "link", "util", "pred delay (ms)",
              "gain");
  const std::vector<planning::UpgradeOption> upgrades =
      engine.rank_upgrades(6, 2.5);
  for (const planning::UpgradeOption& opt : upgrades) {
    std::printf("%4d<->%-4d %8.2f %18.3f %+9.1f%%\n", opt.src, opt.dst,
                opt.utilization, opt.objective * 1e3,
                100.0 * opt.improvement);
  }

  // Verify the chosen upgrade with the packet simulator (the expensive
  // check you now only run once).
  const planning::UpgradeOption& best = upgrades.front();
  std::printf("\nchosen upgrade: %d<->%d — verifying with the packet "
              "simulator...\n", best.src, best.dst);
  planning::Scenario upgraded = scenario;
  upgraded.topology = planning::with_link_capacity_scaled(
      *scenario.topology, best.link_id, 2.5);
  sim::SimConfig scfg;
  scfg.warmup_s = 1.0;
  scfg.horizon_s = sim::horizon_for_target_packets(
      upgraded.tm, scfg.model, scfg.warmup_s, 100.0);
  const auto simulate_mean = [&scfg](const planning::Scenario& sc) {
    const sim::SimResult res = sim::PacketSimulator(scfg).run(
        *sc.topology, sc.routing, sc.tm);
    Welford acc;
    for (const sim::PathStats& ps : res.paths) {
      if (ps.delivered > 10) acc.add(ps.mean_delay_s);
    }
    return acc.mean();
  };
  std::printf("simulator verification: mean delay %.3f ms -> %.3f ms\n",
              simulate_mean(scenario) * 1e3, simulate_mean(upgraded) * 1e3);

  // --- Failure analysis -------------------------------------------------------
  std::printf("\n=== what-if: single-cable failures (re-routed) ===\n");
  std::printf("%10s %18s %14s\n", "link", "pred delay (ms)", "degradation");
  for (const planning::FailureImpact& impact : engine.rank_failures(6)) {
    if (impact.disconnects) {
      std::printf("%4d<->%-4d %18s %14s\n", impact.src, impact.dst,
                  "n/a", "partitions!");
    } else {
      std::printf("%4d<->%-4d %18.3f %+13.1f%%\n", impact.src, impact.dst,
                  impact.objective * 1e3, 100.0 * impact.degradation);
    }
  }
  std::printf("\neach row above cost one GNN forward pass; simulating all "
              "of them would take ~100x longer (see "
              "the cost section of bench/repro).\n");
  return 0;
}
