// rnbench — the end-to-end benchmark: one workload per process, one compute
// thread, every input generated from --seed, every output checked.
//
//   rnbench --workload NAME --seed N [--seconds S] [--trace-out PATH]
//           [--out PATH] [--work-dir DIR]
//
// Workloads (README.md says why each is in the set):
//   predict_geant2      RouteNet::predict_merged on seeded Geant2 scenarios,
//                       at batch 1 and batch 32, in process.
//   serve_nsfnet        NetServer + ModelRegistry on loopback TCP, fed by an
//                       open-loop Poisson schedule over 4 connections.
//   train_nsfnet_syn50  Trainer::fit over an RNDS1 shard of NSFNET and
//                       synthetic-50 samples, streamed from disk.
//   gen_nsfnet          dataset::generate_shard on NSFNET, then verify_shards.
//
// Run length is work, not a deadline: --seconds fixes how many operations a
// run performs (the rates below were sized so the parent commit takes about
// that long at one thread), so a faster commit does the same work as its
// parent. Timings are medians over operations, because the shared hosts this
// runs on have multi-second slow periods.
//
// Without --trace-out the run prints the end-to-end metrics. With it, the run
// alternates each operation with a composed copy that calls the same public
// functions split at layer boundaries, each inside an obs::TraceSpan named
// after the layer; it prints the per-layer metrics, the tracing overhead,
// and writes a Chrome trace. Every metric is printed as `name value unit`;
// the last line is one JSON object. Exit status is 1 when any correctness
// check fails and 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ag/arena.h"
#include "ag/kernels.h"
#include "ag/optim.h"
#include "bench_common.h"
#include "core/graph_batch.h"
#include "core/routenet.h"
#include "core/trainer.h"
#include "dataset/shard.h"
#include "dataset/stream.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "serve/net.h"
#include "serve/registry.h"
#include "util/stats.h"

namespace {

using namespace rn;
using Clock = std::chrono::steady_clock;
using Prediction = core::RouteNet::Prediction;

// Work per second of --seconds, sized on the parent commit at one thread.
constexpr double kPredictB1PerSecond = 20.0;   // ~21 ms per call
constexpr double kPredictB32PerSecond = 0.8;   // ~0.7 s per call
constexpr double kServeRequestsPerSecond = 60.0;
constexpr double kTrainEpochsPerSecond = 0.3;  // ~2.8 s per epoch
constexpr double kGenShardsPerSecond = 0.75;   // ~1.3 s per 100-sample shard

constexpr int kSetupRepeats = 3;
constexpr int kBigBatch = 32;
constexpr int kServeClients = 4;
constexpr double kServeSloS = 0.100;

// derive_seed stream ids, one per generated input.
constexpr std::uint64_t kPredictStream = 0x7072656469637400ull;
constexpr std::uint64_t kServeStream = 0x7365727665000000ull;
constexpr std::uint64_t kScheduleStream = 0x7363686564000000ull;

const char* const kWorkloads[] = {"predict_geant2", "serve_nsfnet",
                                  "train_nsfnet_syn50", "gen_nsfnet"};

// Layers timed in the traced run; every workload reports all of them (zero
// where the workload never calls the layer) so the output schema is fixed.
const char* const kTimedLayers[] = {
    "core.graph_batch",    "core.forward",      "core.denormalize",
    "ag.loss",             "ag.backward",       "ag.clip",
    "ag.adam",             "dataset.materialize", "dataset.generate_at",
    "dataset.shard_add",   "dataset.shard_finish", "serve.client_rtt",
    "serve.queue_wait",    "serve.server",      "serve.transport"};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

int work_count(double per_second, double seconds, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(per_second * seconds)));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  std::string trace_out;
  std::string out;
  std::string work_dir;
  bool smoke = false;  // RN_BENCH_SCALE=smoke: tiny inputs, seconds per run
};

// One run's results. `metrics` are the end-to-end numbers (untraced run),
// `layers` the per-layer ones (traced run), `diagnostics` are reported but
// gate nothing.
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, double>> diagnostics;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;

  // Counts one operation; a failed one is logged (the first few) and
  // counted against the run.
  void op(bool ok, const char* what) {
    ++ops;
    if (ok) return;
    if (++ops_failed <= 5) std::fprintf(stderr, "rnbench: check failed: %s\n", what);
  }
};

// Per-layer wall time of the traced run. Each call runs inside an
// obs::TraceSpan of the layer's name, so the trace file and the metrics
// describe the same intervals.
class Layers {
 public:
  template <typename Fn>
  void time(const char* name, Fn&& fn) {
    obs::TraceSpan span(name);
    const Clock::time_point t0 = Clock::now();
    fn();
    record(name, since(t0));
  }

  void record(const std::string& name, double s) { calls_[name].push_back(s); }

  double busy(const std::string& name) const {
    const auto it = calls_.find(name);
    return it == calls_.end() ? 0.0 : sum(it->second);
  }

  // calls/busy_s/p50_ms/share for every timed layer; `op_wall_s` is the
  // summed wall time of the traced operations the shares are taken of.
  void report(Report& r, double op_wall_s) const {
    for (const char* name : kTimedLayers) {
      const auto it = calls_.find(name);
      const std::vector<double> none;
      const std::vector<double>& xs = it == calls_.end() ? none : it->second;
      const std::string n(name);
      const double busy_s = sum(xs);
      r.layers.emplace_back(n + ".calls", static_cast<double>(xs.size()));
      r.layers.emplace_back(n + ".busy_s", busy_s);
      r.layers.emplace_back(n + ".p50_ms", xs.empty() ? 0.0 : median(xs) * 1e3);
      r.layers.emplace_back(n + ".share",
                            op_wall_s > 0.0 ? busy_s / op_wall_s : 0.0);
    }
  }

 private:
  std::map<std::string, std::vector<double>> calls_;
};

// Count-type layer metrics; a workload overwrites the ones it measures.
struct LayerCounts {
  double tape_nodes_per_forward = 0.0;
  double fresh_allocs_per_op = 0.0;
  double shard_bytes_per_sample = 0.0;
  double serve_batch_size_mean = 0.0;
  double generator_late_p99_ms = 0.0;
  double overhead_ratio = 0.0;
  double coverage = 0.0;

  void report(Report& r) const {
    r.layers.emplace_back("ag.tape.nodes_per_forward", tape_nodes_per_forward);
    r.layers.emplace_back("ag.arena.fresh_allocs_per_op", fresh_allocs_per_op);
    r.layers.emplace_back("dataset.shard_bytes_per_sample",
                          shard_bytes_per_sample);
    r.layers.emplace_back("serve.batch_size_mean", serve_batch_size_mean);
    r.layers.emplace_back("serve.generator_late_p99_ms", generator_late_p99_ms);
    r.layers.emplace_back("trace.overhead_ratio", overhead_ratio);
    r.layers.emplace_back("trace.coverage", coverage);
  }
};

// Runs `make` kSetupRepeats times, reports the median as setup_s, and keeps
// the last state. Each repeat starts from nothing (the previous state is
// destroyed first), so work moved into set-up shows in the number.
template <typename T>
std::unique_ptr<T> timed_setup(Report& r,
                               const std::function<std::unique_ptr<T>()>& make) {
  std::unique_ptr<T> state;
  std::vector<double> times;
  for (int k = 0; k < kSetupRepeats; ++k) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = make();
    times.push_back(since(t0));
  }
  r.metrics.emplace_back("setup_s", median(times));
  return state;
}

bool finite_positive(const Prediction& p) {
  if (p.delay_s.empty() || p.delay_s.size() != p.jitter_s.size()) return false;
  for (std::size_t i = 0; i < p.delay_s.size(); ++i) {
    if (!std::isfinite(p.delay_s[i]) || !(p.delay_s[i] > 0.0)) return false;
    if (!std::isfinite(p.jitter_s[i]) || !(p.jitter_s[i] > 0.0)) return false;
  }
  return true;
}

bool same_bits(const Prediction& a, const Prediction& b) {
  const auto eq = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return eq(a.delay_s, b.delay_s) && eq(a.jitter_s, b.jitter_s);
}

// Seeded inference scenarios: k=3 shortest-path routing, the generator's
// three matrix shapes in turn, max-link utilisation drawn from [0.3, 0.8].
std::vector<dataset::Sample> scenario_pool(
    const std::shared_ptr<const topo::Topology>& topology, int count,
    std::uint64_t seed, std::uint64_t stream) {
  std::vector<dataset::Sample> pool;
  pool.reserve(static_cast<std::size_t>(count));
  const int n = topology->num_nodes();
  for (int i = 0; i < count; ++i) {
    Rng rng(derive_seed(seed, stream, static_cast<std::uint64_t>(i)));
    routing::RoutingScheme scheme =
        routing::random_k_shortest_routing(*topology, 3, rng);
    traffic::TrafficMatrix tm =
        i % 3 == 0   ? traffic::uniform_traffic(n, 50.0, 150.0, rng)
        : i % 3 == 1 ? traffic::gravity_traffic(n, 1.0e6, rng)
                     : traffic::hotspot_traffic(n, std::max(1, n / 6), 100.0,
                                                4.0, rng);
    traffic::scale_to_max_utilization(tm, *topology, scheme,
                                      rng.uniform(0.3, 0.8));
    pool.push_back(dataset::make_inference_sample(topology, std::move(scheme),
                                                  std::move(tm)));
  }
  return pool;
}

// The paper's model at its seed-7 initial weights with a fixed normalizer
// (the weights do not change the cost of a forward pass).
std::unique_ptr<core::RouteNet> make_inference_model() {
  auto model = std::make_unique<core::RouteNet>(bench::paper_model_config());
  dataset::Normalizer norm;
  norm.capacity_scale = 1.0 / 40'000.0;
  norm.traffic_scale = 1.0 / 100.0;
  norm.log_delay_mean = -3.0;
  norm.log_delay_std = 1.0;
  model->set_normalizer(norm);
  return model;
}

// The untraced operation and its traced, layer-split twin run in strict
// alternation; the tracer is on only while one of these is in scope.
class TracingOn {
 public:
  TracingOn() { obs::Tracer::global().enable(); }
  ~TracingOn() { obs::Tracer::global().disable(); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

// ---------------------------------------------------------------------------
// predict_geant2

struct PredictState {
  std::vector<dataset::Sample> pool;
  std::unique_ptr<core::RouteNet> model;
};

// predict_merged split at its layer boundaries: GraphBatch build, forward,
// then the same denormalization loop, so the outputs are bitwise equal.
std::vector<Prediction> composed_predict(
    const core::RouteNet& model,
    const std::vector<const dataset::Sample*>& samples, Layers& layers,
    double& tape_nodes) {
  core::GraphBatch batch;
  layers.time("core.graph_batch", [&] {
    batch = core::GraphBatch::from_samples(samples, model.normalizer(),
                                           /*with_targets=*/false);
  });
  ag::Tape tape;
  core::RouteNet::Output fwd;
  layers.time("core.forward", [&] { fwd = model.forward(tape, batch); });
  tape_nodes += static_cast<double>(tape.num_nodes());
  std::vector<Prediction> out;
  layers.time("core.denormalize", [&] {
    const dataset::Normalizer& norm = model.normalizer();
    const ag::Tensor& delay = tape.value(fwd.delay);
    const ag::Tensor& jitter = tape.value(fwd.jitter);
    out.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const int offset = batch.path_offset[i];
      const int pairs = samples[i]->num_pairs();
      Prediction pred;
      pred.delay_s.resize(static_cast<std::size_t>(pairs));
      pred.jitter_s.resize(static_cast<std::size_t>(pairs));
      for (int p = 0; p < pairs; ++p) {
        pred.delay_s[static_cast<std::size_t>(p)] =
            norm.denormalize_delay(delay.at(offset + p, 0));
        pred.jitter_s[static_cast<std::size_t>(p)] =
            norm.denormalize_jitter(jitter.at(offset + p, 0));
      }
      out.push_back(std::move(pred));
    }
  });
  return out;
}

void run_predict(const Options& o, bool traced, Report& r) {
  const int pool_size = o.smoke ? kBigBatch : 64;
  const std::unique_ptr<PredictState> st = timed_setup<PredictState>(r, [&] {
    auto s = std::make_unique<PredictState>();
    s->pool = scenario_pool(bench::geant2_topology(), pool_size, o.seed,
                            kPredictStream);
    s->model = make_inference_model();
    // Warm the tensor arena and caches on batch-1 and batch-32 shapes
    // before timing; the first batch-32 call is otherwise ~30% slower.
    std::vector<const dataset::Sample*> big;
    for (int i = 0; i < std::min(kBigBatch, pool_size); ++i) {
      big.push_back(&s->pool[static_cast<std::size_t>(i)]);
      if (i < 8) (void)s->model->predict_merged({big.back()});
    }
    (void)s->model->predict_merged(big);
    return s;
  });
  const core::RouteNet& model = *st->model;
  const std::vector<dataset::Sample>& pool = st->pool;
  const int p = static_cast<int>(pool.size());
  const int n1 = work_count(kPredictB1PerSecond, o.seconds, p);
  const int n32 = work_count(kPredictB32PerSecond, o.seconds, 1);

  // Batch-1 outputs per pool scenario: the reference every later batch-1
  // call and every batch-32 output must match bit for bit.
  std::vector<Prediction> refs(static_cast<std::size_t>(p));
  std::vector<double> b1_s, b32_s, traced_b1_s, traced_b32_s;
  Layers layers;
  double tape_nodes = 0.0;
  double forwards = 0.0;
  double fresh_allocs = 0.0;

  const auto call = [&](const std::vector<const dataset::Sample*>& batch,
                        std::vector<double>& times, std::vector<double>& ttimes,
                        const std::function<bool(const std::vector<Prediction>&)>&
                            check) {
    Clock::time_point t0 = Clock::now();
    const std::vector<Prediction> out = model.predict_merged(batch);
    times.push_back(since(t0));
    r.op(out.size() == batch.size() && check(out), "predict_merged output");
    if (!traced) return;
    const TracingOn on;
    const std::uint64_t allocs0 = ag::tensor_fresh_allocs();
    t0 = Clock::now();
    const std::vector<Prediction> composed =
        composed_predict(model, batch, layers, tape_nodes);
    ttimes.push_back(since(t0));
    fresh_allocs +=
        static_cast<double>(ag::tensor_fresh_allocs() - allocs0);
    forwards += 1.0;
    bool same = composed.size() == out.size();
    for (std::size_t i = 0; same && i < out.size(); ++i) {
      same = same_bits(composed[i], out[i]);
    }
    r.op(same, "composed predict differs from predict_merged");
  };

  // Batch-32 calls are spread evenly over the batch-1 calls that follow the
  // first pass over the pool, so a slow period of the host hits both alike.
  int done32 = 0;
  for (int i = 0; i < n1; ++i) {
    const std::size_t k = static_cast<std::size_t>(i % p);
    call({&pool[k]}, b1_s, traced_b1_s, [&](const std::vector<Prediction>& out) {
      if (!finite_positive(out[0])) return false;
      if (i < p) {
        refs[k] = out[0];
        return true;
      }
      return same_bits(out[0], refs[k]);
    });
    while (done32 < n32 && i + 1 >= p && (i + 1 - p) * n32 >= done32 * (n1 - p)) {
      const int width = std::min(kBigBatch, p);
      const int first = (done32 % (p / width)) * width;
      std::vector<const dataset::Sample*> batch;
      for (int j = 0; j < width; ++j) batch.push_back(&pool[first + j]);
      call(batch, b32_s, traced_b32_s, [&](const std::vector<Prediction>& out) {
        for (int j = 0; j < width; ++j) {
          if (!finite_positive(out[j]) ||
              !same_bits(out[j], refs[static_cast<std::size_t>(first + j)])) {
            return false;
          }
        }
        return true;
      });
      ++done32;
    }
  }

  if (!traced) {
    r.metrics.emplace_back("latency_p50_ms", median(b1_s) * 1e3);
    r.metrics.emplace_back("throughput_per_s", kBigBatch / median(b32_s));
    r.diagnostics.emplace_back("predict.b1_p90_ms",
                               quantile(b1_s, 0.90) * 1e3);
    r.diagnostics.emplace_back("predict.b1_p99_ms",
                               quantile(b1_s, 0.99) * 1e3);
    r.diagnostics.emplace_back("predict.b1_calls", n1);
    r.diagnostics.emplace_back("predict.b32_calls", n32);
    return;
  }
  const double op_wall = sum(traced_b1_s) + sum(traced_b32_s);
  layers.report(r, op_wall);
  LayerCounts c;
  c.tape_nodes_per_forward = tape_nodes / forwards;
  c.fresh_allocs_per_op = fresh_allocs / forwards;
  c.overhead_ratio = median(traced_b1_s) / median(b1_s);
  c.coverage = (layers.busy("core.graph_batch") + layers.busy("core.forward") +
                layers.busy("core.denormalize")) /
               op_wall;
  c.report(r);
}

// ---------------------------------------------------------------------------
// serve_nsfnet

struct ServeState {
  std::vector<dataset::Sample> pool;
  std::vector<Prediction> refs;  // in-process predict_merged, per scenario
  // Declared before the server: the server must stop before the registry
  // it routes into is destroyed.
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::NetServer> server;
};

struct RequestRecord {
  double due_s = 0.0;      // schedule offset
  double late_s = 0.0;     // send time - due time
  double latency_s = 0.0;  // completion - due time
  double done_s = 0.0;     // completion, from the schedule start
  double rtt_s = 0.0;
  double queue_wait_s = 0.0;
  double server_s = 0.0;
  bool ok = false;
};

// Poisson arrival offsets at `rate`, rescaled so the schedule spans exactly
// count / rate seconds: the offered load is the same for every seed.
std::vector<double> poisson_schedule(std::uint64_t seed, int count,
                                     double rate) {
  Rng rng(derive_seed(seed, kScheduleStream, 0));
  std::vector<double> at(static_cast<std::size_t>(count));
  double t = 0.0;
  for (double& x : at) {
    t += rng.exponential(1.0 / rate);
    x = t;
  }
  const double total = t + rng.exponential(1.0 / rate);
  const double stretch = (count / rate) / total;
  for (double& x : at) x *= stretch;
  return at;
}

// Open loop: request i is due at schedule[i] and goes out on connection
// i mod kServeClients, one client thread per connection. A client still
// waiting on its previous reply sends late; latency counts from the due
// time, so that wait is charged to the system.
std::vector<RequestRecord> run_schedule(const ServeState& st,
                                        const std::vector<double>& schedule) {
  std::vector<RequestRecord> recs(schedule.size());
  const std::string address = st.server->address();
  std::latch connected(kServeClients);
  Clock::time_point start;
  std::latch started(1);
  std::vector<std::string> errors(kServeClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      std::unique_ptr<serve::NetClient> client;
      try {
        client = std::make_unique<serve::NetClient>(address);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
      connected.count_down();
      started.wait();
      if (!client) return;
      for (std::size_t i = static_cast<std::size_t>(c); i < recs.size();
           i += kServeClients) {
        RequestRecord& rec = recs[i];
        rec.due_s = schedule[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i]));
        std::this_thread::sleep_until(due);
        rec.late_s = std::max(0.0, since(due));
        const std::size_t k = i % st.pool.size();
        try {
          obs::TraceSpan span("serve.client_rtt");
          const double span_start = obs::trace_now_s();
          const serve::NetClient::PredictOutcome res =
              client->predict_traced("default", st.pool[k]);
          span.end();
          rec.rtt_s = res.rtt_s;
          rec.queue_wait_s = res.queue_wait_s;
          rec.server_s = res.server_s;
          rec.ok = res.server_traced && same_bits(res.prediction, st.refs[k]);
          if (span.id() != 0) {
            // The server's share of the round trip, placed assuming the two
            // transport legs take equal time.
            obs::Tracer& tr = obs::Tracer::global();
            const double leg = std::max(0.0, res.rtt_s - res.server_s) / 2.0;
            const auto rid = static_cast<std::int64_t>(res.request_id);
            tr.emit_complete("serve.transport", span.id(), span_start, leg,
                             "rid", rid);
            tr.emit_complete("serve.server", span.id(), span_start + leg,
                             res.server_s, "rid", rid);
            tr.emit_complete("serve.queue_wait", span.id(), span_start + leg,
                             res.queue_wait_s, "rid", rid);
            tr.emit_complete("serve.transport", span.id(),
                             span_start + leg + res.server_s, leg, "rid", rid);
          }
        } catch (const std::exception&) {
          rec.ok = false;
        }
        rec.done_s = std::chrono::duration<double>(Clock::now() - start).count();
        rec.latency_s = rec.done_s - rec.due_s;
      }
    });
  }
  connected.wait();
  start = Clock::now() + std::chrono::milliseconds(50);
  started.count_down();
  for (std::thread& t : clients) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("client connect failed: " + e);
  }
  return recs;
}

void run_serve(const Options& o, bool traced, Report& r) {
  const int pool_size = o.smoke ? 16 : 64;
  const std::unique_ptr<ServeState> st = timed_setup<ServeState>(r, [&] {
    auto s = std::make_unique<ServeState>();
    s->pool = scenario_pool(bench::nsfnet_topology(), pool_size, o.seed,
                            kServeStream);
    const std::unique_ptr<core::RouteNet> reference = make_inference_model();
    for (const dataset::Sample& sample : s->pool) {
      s->refs.push_back(reference->predict_merged({&sample})[0]);
    }
    serve::ServerConfig scfg;
    scfg.max_batch = 8;
    scfg.batch_deadline_s = 0.002;
    scfg.queue_capacity = 1024;
    scfg.workers = 1;
    s->registry = std::make_unique<serve::ModelRegistry>(scfg);
    s->registry->install("default", make_inference_model());
    s->server = std::make_unique<serve::NetServer>(*s->registry,
                                                   serve::NetServerConfig{});
    s->server->start();
    // Warm the connection path and the worker's arena before timing.
    serve::NetClient warm(s->server->address());
    for (int i = 0; i < 16; ++i) {
      (void)warm.predict("default", s->pool[static_cast<std::size_t>(i) %
                                            s->pool.size()]);
    }
    return s;
  });

  const int count = work_count(kServeRequestsPerSecond, o.seconds, 20);
  const std::vector<double> schedule =
      poisson_schedule(o.seed, count, kServeRequestsPerSecond);
  const auto account = [&r](const std::vector<RequestRecord>& recs) {
    for (const RequestRecord& rec : recs) r.op(rec.ok, "served response");
  };
  const auto latencies = [](const std::vector<RequestRecord>& recs) {
    std::vector<double> xs;
    for (const RequestRecord& rec : recs) xs.push_back(rec.latency_s);
    return xs;
  };

  const std::vector<RequestRecord> recs = run_schedule(*st, schedule);
  account(recs);
  const std::vector<double> lat = latencies(recs);
  if (!traced) {
    double good = 0.0;
    double end_s = 0.0;
    std::vector<double> late;
    for (const RequestRecord& rec : recs) {
      if (rec.ok && rec.latency_s <= kServeSloS) good += 1.0;
      end_s = std::max(end_s, rec.done_s);
      late.push_back(rec.late_s);
    }
    r.metrics.emplace_back("latency_p50_ms", median(lat) * 1e3);
    r.metrics.emplace_back("throughput_per_s", good / end_s);
    r.diagnostics.emplace_back("serve.request_p90_ms", quantile(lat, 0.90) * 1e3);
    r.diagnostics.emplace_back("serve.request_p99_ms", quantile(lat, 0.99) * 1e3);
    r.diagnostics.emplace_back("serve.requests", count);
    r.diagnostics.emplace_back("serve.generator_late_p99_ms",
                               quantile(late, 0.99) * 1e3);
    return;
  }

  serve::InferenceServer& server = st->registry->acquire("default")->server();
  const serve::ServerStats before = server.stats();
  std::vector<RequestRecord> trecs;
  {
    const TracingOn on;
    trecs = run_schedule(*st, schedule);
  }
  const serve::ServerStats after = server.stats();
  account(trecs);
  Layers layers;
  std::vector<double> late;
  double op_wall = 0.0;
  for (const RequestRecord& rec : trecs) {
    layers.record("serve.client_rtt", rec.rtt_s);
    layers.record("serve.queue_wait", rec.queue_wait_s);
    layers.record("serve.server", rec.server_s);
    layers.record("serve.transport", std::max(0.0, rec.rtt_s - rec.server_s));
    late.push_back(rec.late_s);
    op_wall += rec.latency_s;
  }
  layers.report(r, op_wall);
  LayerCounts c;
  c.serve_batch_size_mean =
      after.batches > before.batches
          ? static_cast<double>(after.served - before.served) /
                static_cast<double>(after.batches - before.batches)
          : 0.0;
  c.generator_late_p99_ms = quantile(late, 0.99) * 1e3;
  c.overhead_ratio = median(latencies(trecs)) / median(lat);
  c.coverage = layers.busy("serve.client_rtt") / op_wall;
  c.report(r);
}

// ---------------------------------------------------------------------------
// train_nsfnet_syn50

struct TrainState {
  std::unique_ptr<dataset::StreamingDataset> corpus;
  std::unique_ptr<core::RouteNet> model;
};

core::TrainConfig train_config() {
  // bench_common's paper training recipe, one epoch per fit() call.
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 4;
  tc.learning_rate = 4e-3f;
  tc.lr_decay = 0.92f;
  tc.jitter_loss_weight = 0.3f;
  return tc;
}

bool params_finite(core::RouteNet& model) {
  for (const ag::Parameter* p : model.params()) {
    for (int i = 0; i < p->value.size(); ++i) {
      if (!std::isfinite(p->value[static_cast<std::size_t>(i)])) return false;
    }
  }
  return true;
}

// One epoch of Trainer::fit's step loop split at its layer boundaries: the
// same shuffle, batch size, loss, clip norm and optimizer. The normalizer is
// the one the preceding fit() call fitted on the same corpus.
bool composed_epoch(core::RouteNet& model, dataset::SampleSource& source,
                    Layers& layers, double& tape_nodes, double& forwards) {
  const core::TrainConfig tc = train_config();
  ag::Adam optimizer(model.params(), tc.learning_rate);
  Rng shuffle_rng(tc.shuffle_seed);
  Rng dropout_rng(tc.shuffle_seed ^ 0xa5a5a5a5ull);
  std::vector<std::uint64_t> order(source.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle_rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  bool finite = true;
  std::vector<const dataset::Sample*> chunk;
  for (std::size_t start = 0; start < order.size();
       start += static_cast<std::size_t>(tc.batch_size)) {
    const std::size_t n =
        std::min(order.size() - start, static_cast<std::size_t>(tc.batch_size));
    layers.time("dataset.materialize",
                [&] { source.materialize(&order[start], n, chunk); });
    core::GraphBatch batch;
    layers.time("core.graph_batch", [&] {
      batch = core::GraphBatch::from_samples(chunk, model.normalizer(),
                                             /*with_targets=*/true);
    });
    if (batch.valid_paths.empty()) continue;
    ag::Tape tape;
    core::RouteNet::Output out;
    layers.time("core.forward",
                [&] { out = model.forward(tape, batch, &dropout_rng); });
    tape_nodes += static_cast<double>(tape.num_nodes());
    forwards += 1.0;
    ag::ValueId loss = ag::kInvalidValue;
    layers.time("ag.loss", [&] {
      loss = tape.mse(tape.gather_rows(out.delay, batch.valid_paths),
                      batch.delay_targets);
      const ag::ValueId jitter =
          tape.mse(tape.gather_rows(out.jitter, batch.valid_paths),
                   batch.jitter_targets);
      loss = tape.add(loss, tape.scale(jitter, tc.jitter_loss_weight));
    });
    layers.time("ag.backward", [&] {
      optimizer.zero_grad();
      tape.backward(loss);
    });
    double grad_norm = 0.0;
    layers.time("ag.clip", [&] {
      grad_norm = ag::clip_grad_norm(optimizer.params(), tc.clip_norm);
    });
    finite = finite && std::isfinite(tape.value(loss).at(0, 0)) &&
             std::isfinite(grad_norm);
    layers.time("ag.adam", [&] { optimizer.step(); });
  }
  return finite;
}

void run_train(const Options& o, bool traced, Report& r) {
  const bench::ExperimentScale scale = bench::scale_from_env();
  const std::uint64_t n_nsfnet = o.smoke ? 6 : 56;
  const std::uint64_t n_syn50 = o.smoke ? 2 : 8;
  const std::string path = o.work_dir + "/train.rnds";
  const std::unique_ptr<TrainState> st = timed_setup<TrainState>(r, [&] {
    // The paper's training mix: 14-node NSFNET plus the 50-node synthetic
    // topology, written as one RNDS1 shard and streamed back from disk.
    const dataset::GeneratorConfig cfg = bench::paper_generator_config(scale);
    const dataset::DatasetGenerator gen(cfg, o.seed);
    const auto nsfnet = bench::nsfnet_topology();
    dataset::ShardHeader header;
    header.seed = o.seed;
    header.config_fingerprint = dataset::config_fingerprint(cfg, *nsfnet);
    {
      dataset::ShardWriter writer(path, header);
      for (const dataset::Sample& s : gen.generate_range(nsfnet, 0, n_nsfnet)) {
        writer.add(s);
      }
      for (const dataset::Sample& s :
           gen.generate_range(bench::syn50_topology(), n_nsfnet, n_syn50)) {
        writer.add(s);
      }
      writer.finish();
    }
    auto s = std::make_unique<TrainState>();
    s->corpus = std::make_unique<dataset::StreamingDataset>(path);
    s->model = std::make_unique<core::RouteNet>(bench::paper_model_config());
    return s;
  });
  const double samples = static_cast<double>(st->corpus->size());
  const int epochs = work_count(kTrainEpochsPerSecond, o.seconds, 2);

  std::vector<double> epoch_s, traced_epoch_s;
  Layers layers;
  double tape_nodes = 0.0;
  double forwards = 0.0;
  double fresh_allocs = 0.0;
  for (int e = 0; e < epochs; ++e) {
    Clock::time_point t0 = Clock::now();
    core::Trainer trainer(*st->model, train_config());
    const core::TrainReport rep = trainer.fit(*st->corpus);
    epoch_s.push_back(since(t0));
    r.op(std::isfinite(rep.final_train_loss) && params_finite(*st->model),
         "training loss or parameters not finite");
    if (!traced) continue;
    const TracingOn on;
    const std::uint64_t allocs0 = ag::tensor_fresh_allocs();
    const double forwards0 = forwards;
    t0 = Clock::now();
    const bool finite =
        composed_epoch(*st->model, *st->corpus, layers, tape_nodes, forwards);
    traced_epoch_s.push_back(since(t0));
    fresh_allocs += static_cast<double>(ag::tensor_fresh_allocs() - allocs0);
    r.op(finite && forwards > forwards0 && params_finite(*st->model),
         "composed training epoch not finite");
  }

  if (!traced) {
    r.metrics.emplace_back("latency_p50_ms", median(epoch_s) * 1e3);
    r.metrics.emplace_back("throughput_per_s", samples / median(epoch_s));
    r.diagnostics.emplace_back("train.epochs", epochs);
    r.diagnostics.emplace_back("train.samples", samples);
    return;
  }
  const double op_wall = sum(traced_epoch_s);
  layers.report(r, op_wall);
  LayerCounts c;
  c.tape_nodes_per_forward = tape_nodes / forwards;
  c.fresh_allocs_per_op = fresh_allocs / forwards;
  c.overhead_ratio = median(traced_epoch_s) / median(epoch_s);
  double covered = 0.0;
  for (const char* l : {"dataset.materialize", "core.graph_batch",
                        "core.forward", "ag.loss", "ag.backward", "ag.clip",
                        "ag.adam"}) {
    covered += layers.busy(l);
  }
  c.coverage = covered / op_wall;
  c.report(r);
}

// ---------------------------------------------------------------------------
// gen_nsfnet

struct GenState {
  dataset::GeneratorConfig cfg;
  std::shared_ptr<const topo::Topology> topology;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void run_gen(const Options& o, bool traced, Report& r) {
  const bench::ExperimentScale scale = bench::scale_from_env();
  const std::uint64_t per_shard = o.smoke ? 4 : 100;
  const std::unique_ptr<GenState> st = timed_setup<GenState>(r, [&] {
    auto s = std::make_unique<GenState>();
    s->cfg = bench::paper_generator_config(scale);
    s->topology = bench::nsfnet_topology();
    // Samples far outside the generated range warm the simulator before
    // timing.
    const dataset::DatasetGenerator warm(s->cfg, o.seed);
    for (std::uint64_t i = 0; i < 8; ++i) {
      (void)warm.generate_at(s->topology, (1ull << 40) + i);
    }
    return s;
  });
  const auto shards = static_cast<std::uint32_t>(
      work_count(kGenShardsPerSecond, o.seconds, 2));
  const std::uint64_t total = per_shard * shards;

  std::vector<std::string> paths;
  std::vector<double> shard_s, traced_shard_s;
  Layers layers;
  double bytes = 0.0;
  for (std::uint32_t i = 0; i < shards; ++i) {
    const std::string path =
        o.work_dir + "/gen-" + std::to_string(i) + ".rnds";
    Clock::time_point t0 = Clock::now();
    dataset::generate_shard(path, st->cfg, o.seed, st->topology, total, i,
                            shards);
    shard_s.push_back(since(t0));
    paths.push_back(path);
    if (!traced) continue;
    // generate_shard split at its layer boundaries, with the header it
    // writes; the file must come out byte-identical.
    const std::string composed_path = path + ".composed";
    {
      const TracingOn on;
      t0 = Clock::now();
      const std::uint64_t first = dataset::shard_first(total, i, shards);
      const std::uint64_t last = dataset::shard_first(total, i + 1, shards);
      dataset::ShardHeader header;
      header.seed = o.seed;
      header.config_fingerprint =
          dataset::config_fingerprint(st->cfg, *st->topology);
      header.shard_index = i;
      header.shard_count = shards;
      header.first_index = first;
      const dataset::DatasetGenerator gen(st->cfg, o.seed);
      dataset::ShardWriter writer(composed_path, header);
      for (std::uint64_t idx = first; idx < last; ++idx) {
        std::optional<dataset::Sample> s;
        layers.time("dataset.generate_at",
                    [&] { s.emplace(gen.generate_at(st->topology, idx)); });
        layers.time("dataset.shard_add", [&] { writer.add(*s); });
      }
      layers.time("dataset.shard_finish",
                  [&] { bytes += static_cast<double>(writer.finish()); });
      traced_shard_s.push_back(since(t0));
    }
    r.op(read_file(composed_path) == read_file(path),
         "composed shard differs from generate_shard output");
    std::filesystem::remove(composed_path);
  }
  bool verified = true;
  try {
    dataset::verify_shards(paths);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rnbench: verify_shards: %s\n", e.what());
    verified = false;
  }
  for (std::uint32_t i = 0; i < shards; ++i) r.op(verified, "verify_shards");
  for (const std::string& p : paths) std::filesystem::remove(p);

  if (!traced) {
    const double med = median(shard_s);
    r.metrics.emplace_back("latency_p50_ms", med * 1e3);
    r.metrics.emplace_back("throughput_per_s",
                           static_cast<double>(per_shard) / med);
    r.diagnostics.emplace_back("gen.shards", shards);
    r.diagnostics.emplace_back("gen.samples_per_shard",
                               static_cast<double>(per_shard));
    return;
  }
  const double op_wall = sum(traced_shard_s);
  layers.report(r, op_wall);
  LayerCounts c;
  c.shard_bytes_per_sample = bytes / static_cast<double>(total);
  c.overhead_ratio = median(traced_shard_s) / median(shard_s);
  c.coverage = (layers.busy("dataset.generate_at") +
                layers.busy("dataset.shard_add") +
                layers.busy("dataset.shard_finish")) /
               op_wall;
  c.report(r);
}

// ---------------------------------------------------------------------------

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

const char* unit_of(const std::string& name) {
  const auto ends = [&name](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("per_s")) return "1/s";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends(".share") || ends("_ratio") || ends(".coverage")) return "ratio";
  if (ends("bytes_per_sample")) return "bytes";
  return "count";
}

std::string json_object(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + obs::json_escape(kv[i].first) + "\":" +
           obs::json_number(kv[i].second);
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "rnbench: %s\n"
               "usage: rnbench --workload NAME --seed N [--seconds S]\n"
               "               [--trace-out PATH] [--out PATH] [--work-dir DIR]\n"
               "workloads: predict_geant2 serve_nsfnet train_nsfnet_syn50 "
               "gen_nsfnet\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else if (flag == "--out") {
        o.out = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) {
    return usage("--seconds must be in (0, 3600]");
  }
  const bool traced = !o.trace_out.empty();
  o.smoke = bench::scale_from_env().name == "smoke";
  const bool own_work_dir = o.work_dir.empty();
  if (own_work_dir) {
    o.work_dir = "rnbench-work-" + std::to_string(::getpid());
  }

  // One compute thread: the numbers are comparable across hosts with
  // different core counts, and the serving worker is a dedicated thread.
  par::set_global_threads(1);

  Report r;
  int rc = 0;
  try {
    std::filesystem::create_directories(o.work_dir);
    if (o.workload == "predict_geant2") {
      run_predict(o, traced, r);
    } else if (o.workload == "serve_nsfnet") {
      run_serve(o, traced, r);
    } else if (o.workload == "train_nsfnet_syn50") {
      run_train(o, traced, r);
    } else {
      run_gen(o, traced, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rnbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    rc = 1;
  }
  if (own_work_dir) std::filesystem::remove_all(o.work_dir);
  if (rc != 0) return rc;

  if (traced) {
    obs::Tracer& tracer = obs::Tracer::global();
    obs::Tracer::write_chrome_trace(o.trace_out, tracer.collect(),
                                    /*merge_existing=*/false, tracer.dropped(),
                                    tracer.sampled_out());
  } else {
    r.metrics.emplace_back("peak_rss_mb", peak_rss_mb());
  }

  for (const auto* group : {&r.metrics, &r.layers, &r.diagnostics}) {
    for (const auto& [name, value] : *group) {
      std::printf("%s %.6g %s\n", name.c_str(), value, unit_of(name));
    }
  }
  std::printf("ops %llu count\nops_failed %llu count\n",
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.ops_failed));

  const std::string json =
      "{\"workload\":\"" + o.workload + "\",\"seed\":" + std::to_string(o.seed) +
      ",\"seconds\":" + obs::json_number(o.seconds) +
      ",\"traced\":" + (traced ? "true" : "false") +
      ",\"metrics\":" + json_object(r.metrics) +
      ",\"layers\":" + json_object(r.layers) +
      ",\"diagnostics\":" + json_object(r.diagnostics) +
      ",\"ops\":" + std::to_string(r.ops) +
      ",\"ops_failed\":" + std::to_string(r.ops_failed) +
      ",\"host\":{\"cpu\":\"" + obs::json_escape(cpu_model()) +
      "\",\"kernels\":\"" + ag::kern::backend_name(ag::kern::active_backend()) +
      "\",\"threads\":" + std::to_string(par::global_threads()) +
      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      "}}";
  std::printf("%s\n", json.c_str());
  if (!o.out.empty()) {
    std::ofstream out(o.out);
    out << json << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "rnbench: cannot write %s\n", o.out.c_str());
      return 1;
    }
  }
  return r.ops_failed == 0 ? 0 : 1;
}
