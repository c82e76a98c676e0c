// Serving bench: closed-loop load against the in-process InferenceServer at
// micro-batch caps 1, 8, and 32 with a fixed worker count, reporting
// throughput and p50/p99 request latency per cap. Coalescing amortizes
// per-forward fixed costs, so cap 32 must beat cap 1 — BENCH_serving.json
// records the sweep (plus the registry's serve.* counters) so the serving
// trajectory is tracked across PRs.
//
//   ./serving [--metrics-out PATH] [--threads N]
//
// The workload is many small independent queries (a ring-8 scenario with a
// compact model) — the regime serving batches for: per-forward fixed costs
// (GraphBatch assembly, one forward-only tape node and kernel dispatch per
// op, arena round trips for small tensors) dominate, and coalescing spreads
// them over the whole batch. Weights are untrained: inference cost per
// request is identical either way, and this bench only measures the
// serving path.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "par/thread_pool.h"
#include "serve/server.h"
#include "topology/generators.h"
#include "util/stats.h"

namespace {

constexpr int kRequests = 512;
// Twice the largest batch cap: while one batch computes, the other half of
// the clients refill the queue, so a worker never idles at a batch boundary
// waiting for the convoy it just released to resubmit.
constexpr int kClients = 64;

struct ConfigResult {
  int batch_max = 1;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_batch = 0.0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;

  std::string to_json() const {
    std::string out = "{\"batch_max\":" + std::to_string(batch_max);
    out += ",\"wall_s\":" + rn::obs::json_number(wall_s);
    out += ",\"throughput_rps\":" + rn::obs::json_number(throughput_rps);
    out += ",\"p50_s\":" + rn::obs::json_number(p50_s);
    out += ",\"p99_s\":" + rn::obs::json_number(p99_s);
    out += ",\"mean_batch\":" + rn::obs::json_number(mean_batch);
    out += ",\"served\":" + std::to_string(served);
    out += ",\"rejected\":" + std::to_string(rejected);
    out += ",\"batches\":" + std::to_string(batches) + "}";
    return out;
  }
};

ConfigResult run_config(const rn::core::RouteNet& model,
                        const std::vector<rn::dataset::Sample>& requests,
                        int batch_max) {
  rn::serve::ServerConfig cfg;
  cfg.max_batch = batch_max;
  cfg.batch_deadline_s = 0.001;
  cfg.queue_capacity = requests.size();  // throughput run: nothing rejects
  rn::serve::InferenceServer server(model, cfg);

  std::atomic<int> next{0};
  std::mutex lat_mu;
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  rn::obs::Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<double> mine;
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= static_cast<int>(requests.size())) break;
        rn::obs::Stopwatch watch;
        server.submit(requests[static_cast<std::size_t>(i)]).get();
        mine.push_back(watch.elapsed_s());
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : clients) t.join();
  ConfigResult res;
  res.batch_max = batch_max;
  res.wall_s = wall.elapsed_s();
  server.stop();

  const rn::serve::ServerStats stats = server.stats();
  res.served = stats.served;
  res.rejected = stats.rejected;
  res.batches = stats.batches;
  res.mean_batch =
      stats.batches > 0
          ? static_cast<double>(stats.served) / static_cast<double>(stats.batches)
          : 0.0;
  res.throughput_rps =
      res.wall_s > 0.0 ? static_cast<double>(stats.served) / res.wall_s : 0.0;
  res.p50_s = rn::quantile(latencies, 0.5);
  res.p99_s = rn::quantile(latencies, 0.99);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  rn::bench::init_bench_telemetry(argc, argv);
  rn::obs::Registry& reg = rn::obs::Registry::global();

  auto topology =
      std::make_shared<const rn::topo::Topology>(rn::topo::ring(8));
  rn::core::RouteNetConfig mcfg;
  mcfg.link_state_dim = 8;
  mcfg.path_state_dim = 8;
  mcfg.iterations = 3;
  mcfg.readout_hidden = 16;
  rn::core::RouteNet model(mcfg);
  rn::Rng rng(7);
  const rn::routing::RoutingScheme scheme =
      rn::routing::random_k_shortest_routing(*topology, 2, rng);
  rn::traffic::TrafficMatrix base =
      rn::traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  std::vector<rn::dataset::Sample> requests;
  requests.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    rn::traffic::TrafficMatrix tm = base;
    tm.scale(rng.uniform(0.5, 1.5));
    requests.push_back(
        rn::dataset::make_inference_sample(topology, scheme, std::move(tm)));
  }

  std::printf("== serving bench (%d requests, %d clients, %d pool threads) "
              "==\n",
              kRequests, kClients, rn::par::global_threads());
  std::printf("%10s %14s %12s %12s %12s\n", "batch-max", "req/s", "p50 (ms)",
              "p99 (ms)", "mean batch");
  std::vector<ConfigResult> results;
  for (int batch_max : {1, 8, 32}) {
    results.push_back(run_config(model, requests, batch_max));
    const ConfigResult& r = results.back();
    std::printf("%10d %14.1f %12.3f %12.3f %12.2f\n", r.batch_max,
                r.throughput_rps, r.p50_s * 1e3, r.p99_s * 1e3, r.mean_batch);
  }

  const double batched_speedup =
      results.front().throughput_rps > 0.0
          ? results.back().throughput_rps / results.front().throughput_rps
          : 0.0;
  const bool batched_faster =
      results.back().throughput_rps > results.front().throughput_rps;
  reg.gauge("bench.serving.batched_speedup").set(batched_speedup);
  std::printf("\nbatch-max 32 over batch-max 1: %.2fx throughput%s\n",
              batched_speedup,
              batched_faster ? "" : "  ** NOT faster — regression **");

  const std::string path = rn::bench::cache_dir() + "/BENCH_serving.json";
  {
    std::ofstream out(path);
    if (out.good()) {
      out << "{\"bench\":\"serving\",\"topology\":\"ring8\""
          << ",\"requests\":" << kRequests << ",\"clients\":" << kClients
          << ",\"threads\":" << rn::par::global_threads() << ",\"configs\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) out << ',';
        out << results[i].to_json();
      }
      out << "],\"batched_speedup\":" << rn::obs::json_number(batched_speedup)
          << ",\"batched_faster\":" << (batched_faster ? "true" : "false")
          << ",\"telemetry\":" << reg.snapshot().to_json() << "}\n";
    }
  }
  std::printf("telemetry -> %s\n", path.c_str());
  rn::obs::emit_registry_snapshot();
  rn::obs::EventSink::global().close();
  return 0;
}
