// InferenceServer contract: batched serving returns exactly what single-
// request predict() returns (merged graphs are disjoint, so coalescing must
// not change a single bit), dispatch is work-conserving (a free worker ships
// what is queued at once, up to max_batch), backpressure rejects
// deterministically and is counted, and stop() drains every queued request.
// The whole suite also runs under -DRN_SANITIZE=thread: concurrent
// submitters + worker loops + the shared model must be race-free.
#include "serve/server.h"

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "topology/generators.h"

namespace rn::serve {
namespace {

core::RouteNetConfig tiny_config() {
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 6;
  cfg.path_state_dim = 6;
  cfg.iterations = 2;
  cfg.readout_hidden = 8;
  return cfg;
}

// Distinct inference scenarios on one topology: routing and traffic drawn
// per seed, wrapped by the inference-sample factory.
dataset::Sample make_request(
    const std::shared_ptr<const topo::Topology>& topology,
    std::uint64_t seed) {
  Rng rng(seed);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  return dataset::make_inference_sample(topology, std::move(scheme),
                                        std::move(tm));
}

// Submits and rejects are counted process-wide only; tests read the
// registry counters as deltas around the server under test.
std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

void expect_identical(const core::RouteNet::Prediction& a,
                      const core::RouteNet::Prediction& b) {
  ASSERT_EQ(a.delay_s.size(), b.delay_s.size());
  ASSERT_EQ(a.jitter_s.size(), b.jitter_s.size());
  for (std::size_t i = 0; i < a.delay_s.size(); ++i) {
    EXPECT_EQ(a.delay_s[i], b.delay_s[i]) << "delay row " << i;
    EXPECT_EQ(a.jitter_s[i], b.jitter_s[i]) << "jitter row " << i;
  }
}

TEST(PredictBatch, MatchesSinglePredictAtEveryBatchSize) {
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  core::RouteNet model(tiny_config());
  std::vector<dataset::Sample> samples;
  for (std::uint64_t i = 0; i < 32; ++i) {
    samples.push_back(make_request(topology, i + 1));
  }
  std::vector<core::RouteNet::Prediction> single;
  single.reserve(samples.size());
  for (const dataset::Sample& s : samples) single.push_back(model.predict(s));
  for (int batch_size : {1, 8, 32}) {
    const std::vector<core::RouteNet::Prediction> batched =
        model.predict_batch(samples, batch_size);
    ASSERT_EQ(batched.size(), single.size()) << "batch size " << batch_size;
    for (std::size_t i = 0; i < single.size(); ++i) {
      expect_identical(batched[i], single[i]);
    }
  }
}

TEST(InferenceServer, ConcurrentClientsGetExactlySinglePredictResults) {
  par::set_global_threads(4);
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  core::RouteNet model(tiny_config());
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<dataset::Sample> samples;
  for (std::uint64_t i = 0; i < kClients * kPerClient; ++i) {
    samples.push_back(make_request(topology, 100 + i));
  }
  std::vector<core::RouteNet::Prediction> expected;
  expected.reserve(samples.size());
  for (const dataset::Sample& s : samples) {
    expected.push_back(model.predict(s));
  }

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = samples.size();
  cfg.workers = 2;
  const std::uint64_t requests0 = counter("serve.requests_total");
  const std::uint64_t rejected0 = counter("serve.rejected_total");
  InferenceServer server(model, cfg);
  std::vector<core::RouteNet::Prediction> got(samples.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t i = static_cast<std::size_t>(c * kPerClient + r);
        got[i] = server.submit(samples[i]).get();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();

  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_identical(got[i], expected[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(counter("serve.requests_total") - requests0, samples.size());
  EXPECT_EQ(stats.served, samples.size());
  EXPECT_EQ(counter("serve.rejected_total") - rejected0, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.served);
}

TEST(InferenceServer, QueueOverflowRejectsDeterministically) {
  par::set_global_threads(2);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  core::RouteNet model(tiny_config());
  // Paused workers take nothing off the queue, so capacity 4 fills with
  // exactly four submits and the fifth rejects, with no dependence on how
  // fast the worker wakes.
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 4;
  cfg.workers = 1;
  const std::uint64_t requests0 = counter("serve.requests_total");
  const std::uint64_t rejected0 = counter("serve.rejected_total");
  InferenceServer server(model, cfg);
  server.set_paused_for_test(true);
  std::vector<std::future<core::RouteNet::Prediction>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit(make_request(topology, 200 + i)));
  }
  EXPECT_EQ(server.queue_depth(), 4u);
  EXPECT_THROW(server.submit(make_request(topology, 299)), RejectedError);
  // Resume: the four queued requests are served as if nothing happened.
  server.set_paused_for_test(false);
  for (std::future<core::RouteNet::Prediction>& f : futures) {
    const core::RouteNet::Prediction pred = f.get();
    EXPECT_FALSE(pred.delay_s.empty());
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(counter("serve.requests_total") - requests0, 4u);
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(counter("serve.rejected_total") - rejected0, 1u);
  EXPECT_THROW(server.submit(make_request(topology, 300)), RejectedError);
}

TEST(InferenceServer, PauseHoldsTheQueueAndStopOverrides) {
  par::set_global_threads(2);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(4));
  core::RouteNet model(tiny_config());
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  cfg.workers = 1;
  InferenceServer server(model, cfg);
  server.set_paused_for_test(true);
  std::vector<std::future<core::RouteNet::Prediction>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(make_request(topology, 600 + i)));
  }
  EXPECT_EQ(server.queue_depth(), 3u);
  // stop() overrides the pause: everything queued is still drained.
  server.stop();
  for (std::future<core::RouteNet::Prediction>& f : futures) {
    EXPECT_FALSE(f.get().delay_s.empty());
  }
  EXPECT_EQ(server.stats().served, 3u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(InferenceServer, LoneRequestShipsWithoutWaitingForCompany) {
  par::set_global_threads(2);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(4));
  core::RouteNet model(tiny_config());
  ServerConfig cfg;
  cfg.max_batch = 8;
  // Read by nothing: an idle worker must not hold a partial batch open.
  cfg.batch_deadline_s = 5.0;
  cfg.workers = 1;
  InferenceServer server(model, cfg);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      server.submit(make_request(topology, 700)).get().delay_s.empty());
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(waited_s, 1.0);
  server.stop();
  EXPECT_EQ(server.stats().batches, 1u);
}

// Pauses a one-worker server, queues `count` requests, resumes, and
// returns how many batches served them; every prediction must equal
// single-request predict() bit for bit.
std::uint64_t batches_for_queued(int count) {
  par::set_global_threads(2);
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  core::RouteNet model(tiny_config());
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 1;
  InferenceServer server(model, cfg);
  server.set_paused_for_test(true);
  std::vector<dataset::Sample> samples;
  std::vector<std::future<core::RouteNet::Prediction>> futures;
  for (int i = 0; i < count; ++i) {
    samples.push_back(make_request(topology, 800 + i));
    futures.push_back(server.submit(samples.back()));
  }
  server.set_paused_for_test(false);
  for (int i = 0; i < count; ++i) {
    expect_identical(futures[static_cast<std::size_t>(i)].get(),
                     model.predict(samples[static_cast<std::size_t>(i)]));
  }
  server.stop();
  EXPECT_EQ(server.stats().served, static_cast<std::uint64_t>(count));
  return server.stats().batches;
}

TEST(InferenceServer, QueuedRequestsShipAsOneBatchOnResume) {
  EXPECT_EQ(batches_for_queued(5), 1u);
}

TEST(InferenceServer, QueuedRequestsShipInMaxBatchChunks) {
  EXPECT_EQ(batches_for_queued(20), 3u);  // ceil(20 / 8)
}

TEST(InferenceServer, StopDrainsEveryQueuedRequest) {
  par::set_global_threads(2);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(6));
  core::RouteNet model(tiny_config());
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  cfg.workers = 2;
  InferenceServer server(model, cfg);
  std::vector<std::future<core::RouteNet::Prediction>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit(make_request(topology, 400 + i)));
  }
  server.stop();
  for (std::future<core::RouteNet::Prediction>& f : futures) {
    EXPECT_FALSE(f.get().delay_s.empty());
  }
  EXPECT_EQ(server.stats().served, 16u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(InferenceServer, WorksOnAnInlineOneThreadPool) {
  // A 1-thread pool runs submit() inline on the caller; the server must
  // fall back to dedicated threads instead of wedging its constructor.
  par::set_global_threads(1);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(4));
  core::RouteNet model(tiny_config());
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  cfg.workers = 2;
  InferenceServer server(model, cfg);
  std::vector<std::future<core::RouteNet::Prediction>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(make_request(topology, 500 + i)));
  }
  for (std::future<core::RouteNet::Prediction>& f : futures) {
    EXPECT_FALSE(f.get().delay_s.empty());
  }
  server.stop();
  EXPECT_EQ(server.stats().served, 6u);
  par::set_global_threads(0);  // restore the default pool for later suites
}

}  // namespace
}  // namespace rn::serve
