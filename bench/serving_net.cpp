// Network-serving bench: closed-loop RNP/1 load over loopback TCP against
// the real NetServer + ModelRegistry, in two measured phases:
//
//   conserving — the work-conserving batcher under 8 closed-loop clients:
//                after a warmup, the main measured run (10k requests at the
//                standard tier) must hold the client p99 at or under the
//                25ms SLO with zero errors. Batches form only from what
//                queued while the workers were busy.
//   overload   — a two-slot queue with single-request batches under 16
//                hammering clients: rejects must happen (backpressure is
//                real), stay bounded (some requests are still served), and a
//                fresh probe after the storm must succeed.
//
// BENCH_serving_net.json records both phases; under RN_BENCH_ENFORCE=1 the
// conserving-holds / overload-bounded checks become exit codes instead of
// report lines.
//
//   ./serving_net [--metrics-out PATH] [--threads N]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/window.h"
#include "par/thread_pool.h"
#include "serve/net.h"
#include "serve/registry.h"
#include "topology/generators.h"
#include "util/stats.h"

namespace {

constexpr double kSloP99S = 0.025;

struct PhaseResult {
  std::string name;
  int requests = 0;
  int clients = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  // Server-attributed share of client rtt spent in the batching queue
  // (sum of echoed queue_wait_s over sum of rtt_s) — how much of what the
  // client feels the server could shed by batching less.
  double queue_wait_share = 0.0;

  std::string to_json() const {
    std::string out = "{\"phase\":\"" + name + "\"";
    out += ",\"requests\":" + std::to_string(requests);
    out += ",\"clients\":" + std::to_string(clients);
    out += ",\"wall_s\":" + rn::obs::json_number(wall_s);
    out += ",\"throughput_rps\":" + rn::obs::json_number(throughput_rps);
    out += ",\"p50_s\":" + rn::obs::json_number(p50_s);
    out += ",\"p99_s\":" + rn::obs::json_number(p99_s);
    out += ",\"queue_wait_share\":" + rn::obs::json_number(queue_wait_share);
    out += ",\"ok\":" + std::to_string(ok);
    out += ",\"rejected\":" + std::to_string(rejected);
    out += ",\"failed\":" + std::to_string(failed) + "}";
    return out;
  }
};

// Closed-loop load: `clients` threads, one RNP/1 connection each, pulling
// request indices off a shared counter until `total` round trips have been
// issued. Rejected submissions (server backpressure) count separately from
// hard failures.
PhaseResult run_load(const std::string& name, const std::string& address,
                     const std::vector<rn::dataset::Sample>& pool, int total,
                     int clients) {
  std::atomic<int> next{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex lat_mu;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(total));
  double queue_wait_sum = 0.0;
  double rtt_sum = 0.0;
  // Connect before the clock starts, on this thread, so a failed connect
  // throws to main() instead of escaping a client thread.
  std::vector<std::unique_ptr<rn::serve::NetClient>> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<rn::serve::NetClient>(address));
  }
  rn::obs::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      rn::serve::NetClient& client = *conns[static_cast<std::size_t>(c)];
      std::vector<double> mine;
      double my_queue_wait = 0.0;
      double my_rtt = 0.0;
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        const rn::dataset::Sample& s =
            pool[static_cast<std::size_t>(i) % pool.size()];
        try {
          const rn::serve::NetClient::PredictOutcome outcome =
              client.predict_traced("default", s);
          mine.push_back(outcome.rtt_s);
          my_rtt += outcome.rtt_s;
          my_queue_wait += outcome.queue_wait_s;
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const rn::serve::RemoteError& e) {
          if (e.code() == rn::serve::wire::ErrorCode::kRejected) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), mine.begin(), mine.end());
      queue_wait_sum += my_queue_wait;
      rtt_sum += my_rtt;
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult res;
  res.name = name;
  res.requests = total;
  res.clients = clients;
  res.wall_s = wall.elapsed_s();
  res.ok = ok.load();
  res.rejected = rejected.load();
  res.failed = failed.load();
  res.throughput_rps =
      res.wall_s > 0.0 ? static_cast<double>(res.ok) / res.wall_s : 0.0;
  res.p50_s = rn::quantile(latencies, 0.5);
  res.p99_s = rn::quantile(latencies, 0.99);
  res.queue_wait_share = rtt_sum > 0.0 ? queue_wait_sum / rtt_sum : 0.0;
  return res;
}

void print_phase(const PhaseResult& r) {
  std::printf("%10s %8d %14.1f %12.3f %12.3f %8llu %8llu\n", r.name.c_str(),
              r.requests, r.throughput_rps, r.p50_s * 1e3, r.p99_s * 1e3,
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.failed));
}

}  // namespace

int main(int argc, char** argv) {
  rn::bench::init_bench_telemetry(argc, argv);
  rn::obs::Registry& reg = rn::obs::Registry::global();
  const rn::bench::ExperimentScale scale = rn::bench::scale_from_env();
  const int kWarmup = scale.serve.warmup;
  const int kMain = scale.serve.main;
  const int kOverload = scale.serve.overload;
  const int kClients = 8;

  // Compact model + request pool: the regime network serving batches for —
  // many small independent queries where per-request fixed costs dominate.
  auto topology =
      std::make_shared<const rn::topo::Topology>(rn::topo::ring(8));
  rn::core::RouteNetConfig mcfg;
  mcfg.link_state_dim = 8;
  mcfg.path_state_dim = 8;
  mcfg.iterations = 3;
  mcfg.readout_hidden = 16;
  rn::Rng rng(7);
  const rn::routing::RoutingScheme scheme =
      rn::routing::random_k_shortest_routing(*topology, 2, rng);
  rn::traffic::TrafficMatrix base =
      rn::traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  std::vector<rn::dataset::Sample> pool;
  pool.reserve(64);
  for (int i = 0; i < 64; ++i) {
    rn::traffic::TrafficMatrix tm = base;
    tm.scale(rng.uniform(0.5, 1.5));
    pool.push_back(
        rn::dataset::make_inference_sample(topology, scheme, std::move(tm)));
  }

  std::printf("== network serving bench (loopback RNP/1, %d clients, "
              "SLO p99 %.0fms, tier %s) ==\n",
              kClients, kSloP99S * 1e3, scale.name.c_str());
  std::printf("%10s %8s %14s %12s %12s %8s %8s\n", "phase", "reqs", "req/s",
              "p50 (ms)", "p99 (ms)", "rejects", "failed");
  std::vector<PhaseResult> results;

  // Phase 1: the work-conserving batcher. The warmup run connects and
  // fills the workers' arenas; the latency window is cleared before the
  // measured run.
  {
    rn::serve::ServerConfig scfg;
    scfg.max_batch = 16;
    scfg.queue_capacity = 4096;
    rn::serve::ModelRegistry registry(scfg);
    registry.install("default",
                     std::make_unique<rn::core::RouteNet>(mcfg));
    rn::serve::NetServerConfig ncfg;
    rn::serve::NetServer server(registry, ncfg);
    server.start();
    run_load("warmup", server.address(), pool, kWarmup, kClients);
    reg.windowed("serve.latency_s").reset();
    results.push_back(
        run_load("conserving", server.address(), pool, kMain, kClients));
    print_phase(results.back());
    server.stop();
  }

  // Phase 2: overload. Two queue slots, single-request batches, 16 clients:
  // backpressure must reject, the server must keep serving, and a fresh
  // probe after the storm must succeed.
  bool probe_ok = false;
  {
    rn::serve::ServerConfig scfg;
    scfg.max_batch = 1;
    scfg.queue_capacity = 2;
    scfg.workers = 1;
    rn::serve::ModelRegistry registry(scfg);
    registry.install("default",
                     std::make_unique<rn::core::RouteNet>(mcfg));
    rn::serve::NetServerConfig ncfg;
    rn::serve::NetServer server(registry, ncfg);
    server.start();
    results.push_back(
        run_load("overload", server.address(), pool, kOverload, 16));
    print_phase(results.back());
    try {
      rn::serve::NetClient probe(server.address());
      probe_ok = !probe.predict("default", pool[0]).delay_s.empty();
    } catch (const std::exception& e) {
      std::printf("post-overload probe failed: %s\n", e.what());
    }
    server.stop();
  }

  const PhaseResult& conserving = results[0];
  const PhaseResult& overload = results[1];
  const bool conserving_holds =
      conserving.p99_s <= kSloP99S && conserving.failed == 0 &&
      conserving.ok == static_cast<std::uint64_t>(conserving.requests);
  const bool overload_bounded = overload.rejected > 0 && overload.ok > 0 &&
                                overload.failed == 0 && probe_ok;
  reg.gauge("bench.serving_net.conserving_p99_s").set(conserving.p99_s);

  std::printf("\nwork-conserving p99 %.1fms vs SLO %.0fms: %s\n",
              conserving.p99_s * 1e3, kSloP99S * 1e3,
              conserving_holds ? "holds" : "** SLO MISSED — regression **");
  std::printf("overload: %llu rejected / %llu served, probe %s: %s\n",
              static_cast<unsigned long long>(overload.rejected),
              static_cast<unsigned long long>(overload.ok),
              probe_ok ? "ok" : "FAILED",
              overload_bounded ? "bounded"
                               : "** backpressure contract broken **");

  const std::string path =
      rn::bench::cache_dir() + "/BENCH_serving_net.json";
  {
    std::ofstream out(path);
    if (out.good()) {
      out << "{\"bench\":\"serving_net\",\"topology\":\"ring8\""
          << ",\"transport\":\"tcp-loopback\",\"scale\":\"" << scale.name
          << "\",\"slo_p99_s\":" << rn::obs::json_number(kSloP99S)
          << ",\"threads\":" << rn::par::global_threads() << ",\"phases\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) out << ',';
        out << results[i].to_json();
      }
      out << "],\"client_latency\":{\"p50_s\":"
          << rn::obs::json_number(conserving.p50_s)
          << ",\"p99_s\":" << rn::obs::json_number(conserving.p99_s)
          << ",\"queue_wait_share\":"
          << rn::obs::json_number(conserving.queue_wait_share) << '}'
          << ",\"conserving_holds_slo\":"
          << (conserving_holds ? "true" : "false")
          << ",\"overload_bounded\":" << (overload_bounded ? "true" : "false")
          << ",\"telemetry\":" << reg.snapshot().to_json() << "}\n";
    }
  }
  std::printf("telemetry -> %s\n", path.c_str());
  rn::obs::emit_registry_snapshot();
  rn::obs::EventSink::global().close();

  if (std::getenv("RN_BENCH_ENFORCE") != nullptr &&
      !(conserving_holds && overload_bounded)) {
    std::printf("RN_BENCH_ENFORCE set: failing on serving-net gate\n");
    return 1;
  }
  return 0;
}
