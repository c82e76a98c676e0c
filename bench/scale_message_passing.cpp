// Scalability of the GNN itself — the demo's point is generalization "to
// larger topologies of variable size (up to 50 nodes)", which only matters
// if message passing scales with graph size.
//
// google-benchmark: full RouteNet forward pass (inference, on a
// forward-only tape) across topology sizes and message-passing iteration
// counts; a recording training step; plus the packet simulator's event
// throughput as the cost yardstick.
#include <benchmark/benchmark.h>

#include <memory>

#include "ag/optim.h"
#include "bench_common.h"
#include "sim/simulator.h"
#include "topology/generators.h"

namespace {

using namespace rn;

dataset::Sample sample_for_nodes(int n, std::uint64_t seed) {
  Rng rng(seed);
  auto topology = std::make_shared<const topo::Topology>(
      topo::synthetic_ba(n, 2, rng));
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(n, 50.0, 150.0, rng);
  traffic::scale_to_max_utilization(tm, *topology, scheme, 0.6);
  dataset::Sample s{topology, std::move(scheme), std::move(tm), {}, {}, {},
                    0.6};
  const int pairs = topology->num_pairs();
  s.delay_s.assign(static_cast<std::size_t>(pairs), 0.01);
  s.jitter_s.assign(static_cast<std::size_t>(pairs), 0.001);
  s.valid.assign(static_cast<std::size_t>(pairs), 1);
  return s;
}

void BM_ForwardByTopologySize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const dataset::Sample sample = sample_for_nodes(n, 11);
  core::RouteNet model(bench::paper_model_config());
  const core::GraphBatch batch =
      core::GraphBatch::from_sample(sample, model.normalizer(), false);
  for (auto _ : state) {
    ag::Tape tape(ag::TapeMode::kForwardOnly);
    benchmark::DoNotOptimize(model.forward(tape, batch));
  }
  state.counters["paths"] = static_cast<double>(batch.num_paths);
  state.counters["links"] = static_cast<double>(batch.num_links);
}
BENCHMARK(BM_ForwardByTopologySize)->Arg(10)->Arg(14)->Arg(24)->Arg(50)
    ->Unit(benchmark::kMillisecond);

void BM_ForwardByIterations(benchmark::State& state) {
  const dataset::Sample sample = sample_for_nodes(24, 12);
  core::RouteNetConfig cfg = bench::paper_model_config();
  cfg.iterations = static_cast<int>(state.range(0));
  core::RouteNet model(cfg);
  const core::GraphBatch batch =
      core::GraphBatch::from_sample(sample, model.normalizer(), false);
  for (auto _ : state) {
    ag::Tape tape(ag::TapeMode::kForwardOnly);
    benchmark::DoNotOptimize(model.forward(tape, batch));
  }
}
BENCHMARK(BM_ForwardByIterations)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TrainingStep(benchmark::State& state) {
  const dataset::Sample sample = sample_for_nodes(14, 13);
  core::RouteNet model(bench::paper_model_config());
  const core::GraphBatch batch =
      core::GraphBatch::from_sample(sample, model.normalizer(), true);
  ag::Adam opt(model.params(), 1e-3f);
  for (auto _ : state) {
    ag::Tape tape;
    const core::RouteNet::Output out = model.forward(tape, batch);
    const ag::ValueId sel = tape.gather_rows(out.delay, batch.valid_paths);
    const ag::ValueId loss = tape.mse(sel, batch.delay_targets);
    opt.zero_grad();
    tape.backward(loss);
    opt.step();
  }
}
BENCHMARK(BM_TrainingStep)->Unit(benchmark::kMillisecond);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(14);
  auto topology = std::make_shared<const topo::Topology>(
      topo::synthetic_ba(n, 2, rng));
  routing::RoutingScheme scheme = routing::shortest_path_routing(*topology);
  traffic::TrafficMatrix tm = traffic::uniform_traffic(n, 50.0, 150.0, rng);
  traffic::scale_to_max_utilization(tm, *topology, scheme, 0.6);
  sim::SimConfig cfg;
  cfg.warmup_s = 0.5;
  cfg.horizon_s =
      sim::horizon_for_target_packets(tm, cfg.model, cfg.warmup_s, 40.0);
  const sim::PacketSimulator simulator(cfg);
  std::size_t events = 0;
  for (auto _ : state) {
    const sim::SimResult res = simulator.run(*topology, scheme, tm);
    events += res.total_events;
    benchmark::DoNotOptimize(res);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(14)->Arg(24)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
