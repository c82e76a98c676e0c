// NetServer start/stop lifecycle (labels: serve, net).
//
// stop() must hand the listening socket back only after the accept thread
// has finished with it: the accept thread works on its own copy of the fd,
// stop() merely shuts the listener down to wake accept(), joins, and only
// then closes the fd. Fifty start → connect → stop cycles, each with a
// second client racing stop(), give the thread-sanitized build a window
// onto any shared access to the listener state and make a reused
// descriptor number show up as a hang or a stray accept.
#include "serve/net.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "routing/routing.h"
#include "topology/generators.h"
#include "traffic/traffic.h"

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

dataset::Sample make_request(
    const std::shared_ptr<const topo::Topology>& topology) {
  Rng rng(5);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(topology->num_nodes(), 50.0, 150.0, rng);
  return dataset::make_inference_sample(topology, std::move(scheme),
                                        std::move(tm));
}

TEST(NetServerLifecycle, StartConnectStopCyclesAreRaceFree) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  const dataset::Sample request = make_request(topology);
  ServerConfig server_cfg;
  server_cfg.batch_deadline_s = 0.0;
  server_cfg.workers = 1;
  ModelRegistry registry(server_cfg);
  registry.install("m", std::make_unique<core::RouteNet>(tiny_config()));

  constexpr int kCycles = 50;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    NetServer server(registry, NetServerConfig{});
    server.start();
    const std::string address = server.address();
    {
      NetClient client(address);
      // Every tenth cycle also serves a request, so the handler thread
      // does real work before the drain.
      if (cycle % 10 == 0) {
        EXPECT_FALSE(client.predict("m", request).delay_s.empty());
      }
      // A second client races stop(): it may be accepted, or refused once
      // the listener is down — either is fine, a crash or hang is not.
      std::thread racer([&address] {
        try {
          NetClient late(address);
        } catch (const std::runtime_error&) {
        }
      });
      server.stop();
      racer.join();
    }
    // A connection still in the kernel backlog at stop() is never
    // accepted, so only a cycle that served a request must count one.
    if (cycle % 10 == 0) {
      EXPECT_GE(server.stats().connections, 1u) << "cycle " << cycle;
    }
    // stop() is idempotent and the listener is gone.
    server.stop();
    EXPECT_THROW(NetClient{address}, std::runtime_error) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace rn::serve
