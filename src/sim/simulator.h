// Packet-level discrete-event network simulator.
//
// This is the ground-truth engine standing in for the paper's custom
// OMNeT++ simulator: every packet is generated from a per-flow stochastic
// process, queued FIFO at each output link it traverses, transmitted at
// link capacity, and its end-to-end delay recorded at the destination.
// Per-source/destination mean delay and jitter (delay standard deviation)
// are exactly the targets RouteNet learns to predict.
//
// Engine: one 4-ary heap of 16-byte events ({time, seq|kind|target}),
// ordered by (time, scheduling sequence) as one 128-bit key. The order is
// total, so a run is a pure function of its inputs and seed. A node's four
// children fill one cache line and a sift picks the smallest without
// branches. A handler's first new event replaces the root it was popped
// from. With zero propagation delay a hop costs one event, the service
// completion; a packet in propagation waits in a slot pool. Each link's
// queue is one power-of-two ring, and each run flattens the routing and
// link attributes it reads into arrays. docs/performance.md ("Packet
// simulator") has the numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.h"
#include "topology/topology.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace rn::sim {

struct SimConfig {
  // Statistics only count packets created at or after warmup_s.
  double warmup_s = 1.0;
  // Flows emit no packet after horizon_s; the run then drains, so every
  // packet created is delivered or dropped, and the clock ends at the last
  // event rather than at horizon_s.
  double horizon_s = 30.0;
  std::uint64_t seed = 1;
  traffic::TrafficModel model;
  // Per-link queue capacity in packets (excluding the one in service);
  // 0 means infinite (pure delay, no loss).
  int link_buffer_pkts = 0;
};

struct PathStats {
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  double mean_delay_s = 0.0;
  double jitter_s = 0.0;  // standard deviation of per-packet delay
};

struct LinkStats {
  double utilization = 0.0;      // busy fraction of post-warmup time
  double mean_queue_pkts = 0.0;  // time-averaged waiting-queue length
  std::size_t peak_queue_pkts = 0;  // max waiting packets
  std::size_t tx_pkts = 0;
  std::size_t drops = 0;
};

struct SimResult {
  std::vector<PathStats> paths;  // indexed by topo::pair_index
  std::vector<LinkStats> links;
  double simulated_time_s = 0.0;
  double warmup_s = 0.0;  // copied from the config; measured window start
  std::size_t total_events = 0;
  std::size_t packets_created = 0;

  // Whole-run packet accounting (warmup included, unlike PathStats):
  // packets_created == packets_delivered + packets_dropped +
  // packets_in_flight.
  std::size_t packets_delivered = 0;
  std::size_t packets_dropped = 0;
  // Neither delivered nor dropped at the end. The run drains after the
  // horizon, so this is always 0; it stays as the accounting's check term.
  std::size_t packets_in_flight = 0;

  // Run-level telemetry: host wall time of the event loop, its throughput,
  // and the deepest any link queue got.
  double wall_time_s = 0.0;
  double events_per_wall_s = 0.0;
  std::size_t peak_queue_pkts = 0;

  // Simulated time covered by statistics (post-warmup).
  double measured_time_s() const {
    return simulated_time_s > warmup_s ? simulated_time_s - warmup_s : 0.0;
  }

  // Fraction of pairs that delivered at least min_pkts packets — a quick
  // health check that the horizon was long enough.
  double coverage(std::size_t min_pkts = 1) const;
};

class PacketSimulator {
 public:
  explicit PacketSimulator(SimConfig cfg);

  // Runs one scenario. The matrix, scheme, and topology must agree on the
  // node count; paths must be valid (validate_routing).
  SimResult run(const topo::Topology& topo,
                const routing::RoutingScheme& scheme,
                const traffic::TrafficMatrix& tm) const;

  const SimConfig& config() const { return cfg_; }

 private:
  SimConfig cfg_;
};

// Picks a horizon so the average flow emits roughly target_pkts_per_flow
// packets after warmup — keeps dataset generation time predictable across
// topology sizes and intensities.
double horizon_for_target_packets(const traffic::TrafficMatrix& tm,
                                  const traffic::TrafficModel& model,
                                  double warmup_s,
                                  double target_pkts_per_flow);

}  // namespace rn::sim
