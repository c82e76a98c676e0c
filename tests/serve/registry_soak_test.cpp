// ModelRegistry contract + hot-reload race soak (labels: serve, net).
//
// Unit half: name routing, version bumps, misses throwing, removal, and
// file-backed load/reload picking up new weights.
//
// Soak half: the atomic-snapshot swap under fire. Four client threads
// hammer acquire() → submit() → get() at full tilt while a reloader swaps
// the model between two differently-seeded RouteNets 100 times. Every
// response must be bitwise equal to one of the two models'
// single-request predict() — a torn swap, a half-initialized model, or a
// use-after-drain would break exact equality (and the tsan build would
// flag the race). In-flight requests finish on the snapshot they
// acquired; old entries drain when their last handle drops.
#include "serve/registry.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "par/thread_pool.h"
#include "routing/routing.h"
#include "topology/generators.h"
#include "traffic/traffic.h"

namespace rn::serve {
namespace {

core::RouteNetConfig tiny_config(std::uint64_t seed) {
  core::RouteNetConfig cfg;
  cfg.link_state_dim = 6;
  cfg.path_state_dim = 6;
  cfg.iterations = 2;
  cfg.readout_hidden = 8;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<core::RouteNet> make_model(std::uint64_t seed) {
  return std::make_unique<core::RouteNet>(tiny_config(seed));
}

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

bool bitwise_equal(const core::RouteNet::Prediction& a,
                   const core::RouteNet::Prediction& b) {
  if (a.delay_s.size() != b.delay_s.size() ||
      a.jitter_s.size() != b.jitter_s.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.delay_s.size(); ++i) {
    if (a.delay_s[i] != b.delay_s[i] || a.jitter_s[i] != b.jitter_s[i]) {
      return false;
    }
  }
  return true;
}

ServerConfig fast_config() {
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  cfg.workers = 1;
  return cfg;
}

TEST(ModelRegistry, RoutesByNameAndThrowsOnMiss) {
  ModelRegistry registry(fast_config());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_THROW(registry.acquire("nope"), UnknownModelError);

  EXPECT_EQ(registry.install("a", make_model(1)), 1u);
  EXPECT_EQ(registry.install("b", make_model(2)), 1u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.acquire("a")->name(), "a");
  EXPECT_EQ(registry.acquire("b")->name(), "b");
  EXPECT_THROW(registry.acquire("c"), UnknownModelError);

  // Replacing a name bumps its version; the other entry is untouched.
  EXPECT_EQ(registry.install("a", make_model(3)), 2u);
  EXPECT_EQ(registry.acquire("a")->version(), 2u);
  EXPECT_EQ(registry.acquire("b")->version(), 1u);

  const std::vector<ModelRegistry::ModelInfo> info = registry.list();
  ASSERT_EQ(info.size(), 2u);
  EXPECT_EQ(info[0].name, "a");
  EXPECT_GT(info[0].parameters, 0u);

  registry.remove("a");
  EXPECT_THROW(registry.acquire("a"), UnknownModelError);
  EXPECT_THROW(registry.remove("a"), UnknownModelError);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, RemovedEntryKeepsServingHeldHandles) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  ModelRegistry registry(fast_config());
  registry.install("m", make_model(7));
  const ModelRegistry::Handle handle = registry.acquire("m");
  registry.remove("m");
  // The snapshot no longer lists it, but the pinned entry still serves.
  const core::RouteNet::Prediction pred =
      handle->server().submit(make_request(topology, 1)).get();
  EXPECT_FALSE(pred.delay_s.empty());
}

TEST(ModelRegistry, LoadsAndHotReloadsFromFile) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  const dataset::Sample request = make_request(topology, 9);
  const std::string path =
      testing::TempDir() + "registry_reload_model.bin";
  core::RouteNet a(tiny_config(101));
  core::RouteNet b(tiny_config(202));
  const core::RouteNet::Prediction expect_a = a.predict(request);
  const core::RouteNet::Prediction expect_b = b.predict(request);
  ASSERT_FALSE(bitwise_equal(expect_a, expect_b))
      << "seeds 101/202 produced identical models; the reload test "
         "cannot distinguish them";

  a.save(path);
  ModelRegistry registry(fast_config());
  EXPECT_EQ(registry.load("m", path), 1u);
  EXPECT_TRUE(bitwise_equal(
      registry.acquire("m")->server().submit(request).get(), expect_a));

  // New weights land on disk; reload() swaps them in as version 2.
  b.save(path);
  EXPECT_EQ(registry.reload("m"), 2u);
  EXPECT_EQ(registry.acquire("m")->version(), 2u);
  EXPECT_TRUE(bitwise_equal(
      registry.acquire("m")->server().submit(request).get(), expect_b));

  // A corrupt file on disk (RNMODEL3 with a NaN dropout rate at byte 28):
  // reload throws, the version does not move, and version 2 keeps serving.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    f.seekp(28);
    f.write(reinterpret_cast<const char*>(&nan), sizeof(nan));
  }
  EXPECT_THROW(registry.reload("m"), std::runtime_error);
  EXPECT_EQ(registry.acquire("m")->version(), 2u);
  EXPECT_TRUE(bitwise_equal(
      registry.acquire("m")->server().submit(request).get(), expect_b));

  EXPECT_THROW(registry.reload("missing"), UnknownModelError);
  // install()ed models have no source path to reload from.
  registry.install("mem", make_model(5));
  EXPECT_THROW(registry.reload("mem"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelRegistrySoak, HotReloadUnderFireServesOnlyWholeSnapshots) {
  par::set_global_threads(2);
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  constexpr int kRequests = 8;
  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  constexpr int kSwaps = 100;
  constexpr std::uint64_t kSeedA = 11;
  constexpr std::uint64_t kSeedB = 22;

  std::vector<dataset::Sample> samples;
  std::vector<core::RouteNet::Prediction> expect_a;
  std::vector<core::RouteNet::Prediction> expect_b;
  {
    // Weight init is seed-deterministic, so reference instances predict
    // exactly what the registry's copies will.
    const core::RouteNet a(tiny_config(kSeedA));
    const core::RouteNet b(tiny_config(kSeedB));
    for (int i = 0; i < kRequests; ++i) {
      samples.push_back(make_request(topology, 300 + i));
      expect_a.push_back(a.predict(samples.back()));
      expect_b.push_back(b.predict(samples.back()));
    }
    ASSERT_FALSE(bitwise_equal(expect_a[0], expect_b[0]));
  }

  ModelRegistry registry(fast_config());
  registry.install("m", make_model(kSeedA));

  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int i = (c * kPerClient + r) % kRequests;
        const ModelRegistry::Handle handle = registry.acquire("m");
        const core::RouteNet::Prediction pred =
            handle->server()
                .submit(samples[static_cast<std::size_t>(i)])
                .get();
        if (!bitwise_equal(pred,
                           expect_a[static_cast<std::size_t>(i)]) &&
            !bitwise_equal(pred,
                           expect_b[static_cast<std::size_t>(i)])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread reloader([&] {
    for (int s = 0; s < kSwaps; ++s) {
      registry.install("m", make_model(s % 2 == 0 ? kSeedB : kSeedA));
    }
  });
  for (std::thread& t : clients) t.join();
  reloader.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "some response matched neither snapshot's predict()";
  EXPECT_EQ(served.load(),
            static_cast<std::uint64_t>(kClients) * kPerClient);
  // 1 initial install + kSwaps replacements, every one versioned.
  EXPECT_EQ(registry.acquire("m")->version(),
            static_cast<std::uint64_t>(kSwaps) + 1);
  par::set_global_threads(0);
}

}  // namespace
}  // namespace rn::serve
