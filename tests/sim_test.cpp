#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "topology/generators.h"
#include "util/bytes.h"

namespace rn::sim {
namespace {

// Single directed bottleneck: one flow 0→1.
struct SingleLinkScenario {
  SingleLinkScenario(double capacity_bps, double rate_bps)
      : topology("single", 2), scheme(2), tm(2) {
    topology.add_link(0, 1, capacity_bps);
    scheme.set_path(0, 1, {0});
    scheme.set_path(1, 0, {});  // unused (zero traffic)
    tm.set_rate_bps(0, 1, rate_bps);
  }
  topo::Topology topology;
  routing::RoutingScheme scheme;
  traffic::TrafficMatrix tm;
};

TEST(PacketSimulator, MM1MeanDelayMatchesTheory) {
  // M/M/1: W = 1/(μ − λ). μ = 10 pkt/s, λ = 5 pkt/s → W = 0.2 s.
  SingleLinkScenario sc(10'000.0, 5'000.0);
  SimConfig cfg;
  cfg.warmup_s = 50.0;
  cfg.horizon_s = 2'050.0;  // ~10k post-warmup packets
  cfg.seed = 42;
  const PacketSimulator sim(cfg);
  const SimResult res = sim.run(sc.topology, sc.scheme, sc.tm);
  const PathStats& ps = res.paths[static_cast<std::size_t>(
      topo::pair_index(0, 1, 2))];
  EXPECT_GT(ps.delivered, 5'000u);
  EXPECT_NEAR(ps.mean_delay_s, 0.2, 0.02);
  // M/M/1 sojourn is exponential: std == mean.
  EXPECT_NEAR(ps.jitter_s, 0.2, 0.03);
}

TEST(PacketSimulator, MM1UtilizationMatchesRho) {
  SingleLinkScenario sc(10'000.0, 7'000.0);
  SimConfig cfg;
  cfg.warmup_s = 50.0;
  cfg.horizon_s = 1'050.0;
  cfg.seed = 7;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  EXPECT_NEAR(res.links[0].utilization, 0.7, 0.03);
}

TEST(PacketSimulator, MM1MeanQueueMatchesTheory) {
  // Mean waiting-queue length (excluding in service): Lq = ρ²/(1−ρ).
  SingleLinkScenario sc(10'000.0, 5'000.0);
  SimConfig cfg;
  cfg.warmup_s = 100.0;
  cfg.horizon_s = 4'100.0;
  cfg.seed = 11;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  // ρ = 0.5 → Lq = ρ²/(1−ρ) = 0.5.
  EXPECT_NEAR(res.links[0].mean_queue_pkts, 0.5, 0.08);
}

TEST(PacketSimulator, LowLoadDelayApproachesTransmissionTime) {
  // At ρ→0 the sojourn is just the service time: mean size / capacity.
  SingleLinkScenario sc(100'000.0, 1'000.0);  // ρ = 0.01
  SimConfig cfg;
  cfg.warmup_s = 10.0;
  cfg.horizon_s = 4'010.0;
  cfg.seed = 3;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  const double service = 1000.0 / 100'000.0;  // 10 ms
  const PathStats& ps = res.paths[static_cast<std::size_t>(
      topo::pair_index(0, 1, 2))];
  EXPECT_NEAR(ps.mean_delay_s, service, service * 0.1);
}

TEST(PacketSimulator, PropagationDelayAddsUp) {
  topo::Topology t("prop", 3);
  t.add_link(0, 1, 1e9, 0.010);
  t.add_link(1, 2, 1e9, 0.020);
  routing::RoutingScheme scheme(3);
  scheme.set_path(0, 2, {0, 1});
  traffic::TrafficMatrix tm(3);
  tm.set_rate_bps(0, 2, 1'000.0);  // negligible load on 1 Gbps
  SimConfig cfg;
  cfg.warmup_s = 1.0;
  cfg.horizon_s = 2'001.0;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  const PathStats& ps = res.paths[static_cast<std::size_t>(
      topo::pair_index(0, 2, 3))];
  ASSERT_GT(ps.delivered, 100u);
  EXPECT_NEAR(ps.mean_delay_s, 0.030, 0.002);  // dominated by propagation
}

TEST(PacketSimulator, TandemDelayExceedsSingleHop) {
  const topo::Topology t = topo::line(3, 10'000.0);
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  traffic::TrafficMatrix tm(3);
  tm.set_rate_bps(0, 2, 5'000.0);
  tm.set_rate_bps(0, 1, 1'000.0);
  SimConfig cfg;
  cfg.warmup_s = 20.0;
  cfg.horizon_s = 1'020.0;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  const double two_hop = res.paths[static_cast<std::size_t>(
      topo::pair_index(0, 2, 3))].mean_delay_s;
  const double one_hop = res.paths[static_cast<std::size_t>(
      topo::pair_index(0, 1, 3))].mean_delay_s;
  EXPECT_GT(two_hop, one_hop);
}

TEST(PacketSimulator, DeterministicForSameSeed) {
  SingleLinkScenario sc(10'000.0, 6'000.0);
  SimConfig cfg;
  cfg.warmup_s = 5.0;
  cfg.horizon_s = 105.0;
  cfg.seed = 99;
  const SimResult a = PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  const SimResult b = PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  EXPECT_EQ(a.packets_created, b.packets_created);
  EXPECT_DOUBLE_EQ(a.paths[0].mean_delay_s, b.paths[0].mean_delay_s);
  EXPECT_DOUBLE_EQ(a.paths[0].jitter_s, b.paths[0].jitter_s);
}

TEST(PacketSimulator, DifferentSeedsDiffer) {
  SingleLinkScenario sc(10'000.0, 6'000.0);
  SimConfig cfg;
  cfg.warmup_s = 5.0;
  cfg.horizon_s = 105.0;
  cfg.seed = 1;
  const SimResult a = PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  cfg.seed = 2;
  const SimResult b = PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  EXPECT_NE(a.paths[0].mean_delay_s, b.paths[0].mean_delay_s);
}

TEST(PacketSimulator, FiniteBufferDropsUnderOverload) {
  SingleLinkScenario sc(10'000.0, 20'000.0);  // ρ = 2: heavy overload
  SimConfig cfg;
  cfg.warmup_s = 1.0;
  cfg.horizon_s = 61.0;
  cfg.link_buffer_pkts = 8;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  EXPECT_GT(res.links[0].drops, 0u);
  EXPECT_GT(res.paths[0].dropped, 0u);
  // Bounded queue keeps delay bounded: at most (buffer+1) service times of
  // any realistic packet; check a loose cap.
  EXPECT_LT(res.paths[0].mean_delay_s, 10.0);
}

TEST(PacketSimulator, InfiniteBufferNeverDrops) {
  SingleLinkScenario sc(10'000.0, 8'000.0);
  SimConfig cfg;
  cfg.warmup_s = 5.0;
  cfg.horizon_s = 205.0;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  EXPECT_EQ(res.links[0].drops, 0u);
  EXPECT_EQ(res.paths[0].dropped, 0u);
}

TEST(PacketSimulator, DeliveredNeverExceedsCreated) {
  const topo::Topology t = topo::nsfnet();
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  Rng rng(5);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(t.num_nodes(), 10.0, 50.0, rng);
  traffic::scale_to_max_utilization(tm, t, scheme, 0.6);
  SimConfig cfg;
  cfg.warmup_s = 0.0;
  cfg.horizon_s = 30.0;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  std::size_t delivered = 0;
  for (const PathStats& ps : res.paths) delivered += ps.delivered;
  EXPECT_LE(delivered, res.packets_created);
  EXPECT_GT(delivered, 0u);
}

TEST(PacketSimulator, OnOffDelaysExceedPoissonAtSameMeanRate) {
  // Bursty arrivals at identical average load queue more.
  SingleLinkScenario sc(10'000.0, 6'000.0);
  SimConfig cfg;
  cfg.warmup_s = 50.0;
  cfg.horizon_s = 2'050.0;
  cfg.seed = 21;
  const double poisson_delay =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm)
          .paths[0].mean_delay_s;
  cfg.model.arrivals = traffic::ArrivalProcess::kOnOff;
  cfg.model.on_fraction = 0.3;
  cfg.model.mean_on_s = 0.5;
  const double onoff_delay =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm)
          .paths[0].mean_delay_s;
  EXPECT_GT(onoff_delay, 1.3 * poisson_delay);
}

TEST(PacketSimulator, OnOffPreservesMeanRate) {
  SingleLinkScenario sc(100'000.0, 5'000.0);  // low load: no drops, no bias
  SimConfig cfg;
  cfg.warmup_s = 0.0;
  cfg.horizon_s = 2'000.0;
  cfg.model.arrivals = traffic::ArrivalProcess::kOnOff;
  cfg.model.on_fraction = 0.25;
  cfg.model.mean_on_s = 0.4;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  const double pkt_rate =
      static_cast<double>(res.packets_created) / cfg.horizon_s;
  EXPECT_NEAR(pkt_rate, 5.0, 0.4);  // 5000 bps / 1000 bits
}

TEST(PacketSimulator, FixedSizeMD1BeatsMM1Delay) {
  // M/D/1 waits are half M/M/1 waits at equal ρ; total sojourn is smaller.
  SingleLinkScenario sc(10'000.0, 7'000.0);
  SimConfig cfg;
  cfg.warmup_s = 50.0;
  cfg.horizon_s = 2'050.0;
  const double mm1 = PacketSimulator(cfg)
                         .run(sc.topology, sc.scheme, sc.tm)
                         .paths[0].mean_delay_s;
  cfg.model.sizes = traffic::PacketSizeModel::kFixed;
  const double md1 = PacketSimulator(cfg)
                         .run(sc.topology, sc.scheme, sc.tm)
                         .paths[0].mean_delay_s;
  EXPECT_LT(md1, mm1);
}

TEST(PacketSimulator, CoverageReportsActiveFraction) {
  SingleLinkScenario sc(10'000.0, 5'000.0);
  SimConfig cfg;
  cfg.warmup_s = 1.0;
  cfg.horizon_s = 101.0;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  // 1 of 2 pairs carries traffic.
  EXPECT_DOUBLE_EQ(res.coverage(1), 0.5);
}

TEST(PacketSimulator, PropagationAndQueueingCompose) {
  // With both queueing and propagation, mean delay ≈ M/M/1 sojourn + prop.
  topo::Topology t("pq", 2);
  t.add_link(0, 1, 10'000.0, 0.050);
  routing::RoutingScheme scheme(2);
  scheme.set_path(0, 1, {0});
  traffic::TrafficMatrix tm(2);
  tm.set_rate_bps(0, 1, 5'000.0);
  SimConfig cfg;
  cfg.warmup_s = 50.0;
  cfg.horizon_s = 2'050.0;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  const auto idx = static_cast<std::size_t>(topo::pair_index(0, 1, 2));
  EXPECT_NEAR(res.paths[idx].mean_delay_s, 0.2 + 0.050, 0.02);
  // Propagation is constant: jitter still reflects only the queueing part.
  EXPECT_NEAR(res.paths[idx].jitter_s, 0.2, 0.03);
}

TEST(PacketSimulator, ZeroRateFlowsEmitNothing) {
  const topo::Topology t = topo::ring(4);
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  traffic::TrafficMatrix tm(4);
  tm.set_rate_bps(0, 2, 1'000.0);  // single active flow
  SimConfig cfg;
  cfg.warmup_s = 0.5;
  cfg.horizon_s = 60.5;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  for (int idx = 0; idx < t.num_pairs(); ++idx) {
    if (idx == topo::pair_index(0, 2, 4)) continue;
    EXPECT_EQ(res.paths[static_cast<std::size_t>(idx)].delivered, 0u);
  }
  EXPECT_GT(res.paths[static_cast<std::size_t>(
      topo::pair_index(0, 2, 4))].delivered, 20u);
}

TEST(PacketSimulator, HigherLoadMeansHigherDelayMonotonic) {
  // Property: mean delay grows with utilization (same seed & horizon).
  double prev = 0.0;
  for (const double rate : {2'000.0, 4'000.0, 6'000.0, 8'000.0}) {
    SingleLinkScenario sc(10'000.0, rate);
    SimConfig cfg;
    cfg.warmup_s = 20.0;
    cfg.horizon_s = 1'020.0;
    cfg.seed = 9;
    const double d = PacketSimulator(cfg)
                         .run(sc.topology, sc.scheme, sc.tm)
                         .paths[0].mean_delay_s;
    EXPECT_GT(d, prev) << "rate " << rate;
    prev = d;
  }
}

TEST(PacketSimulator, RejectsPathThroughUnknownLink) {
  // The run flattens every path into its route table up front, so a path
  // naming a link the topology lacks throws before any event runs.
  SingleLinkScenario sc(10'000.0, 5'000.0);
  sc.scheme.set_path(1, 0, {3});  // the topology has one link, id 0
  const SimConfig cfg;
  EXPECT_THROW(PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm),
               std::runtime_error);
}

TEST(PacketSimulator, RejectsBadConfig) {
  SimConfig cfg;
  cfg.warmup_s = 10.0;
  cfg.horizon_s = 5.0;
  EXPECT_THROW(PacketSimulator{cfg}, std::runtime_error);
  SimConfig negative_warmup;
  negative_warmup.warmup_s = -1.0;
  EXPECT_THROW(PacketSimulator{negative_warmup}, std::runtime_error);
  SimConfig nan_horizon;
  nan_horizon.horizon_s = std::nan("");
  EXPECT_THROW(PacketSimulator{nan_horizon}, std::runtime_error);
  SimConfig negative_buffer;
  negative_buffer.link_buffer_pkts = -1;
  EXPECT_THROW(PacketSimulator{negative_buffer}, std::runtime_error);
}

// Whole-run packet accounting must reconcile exactly: created == delivered
// + dropped + in_flight. The run drains after the horizon, so nothing is
// left in flight.
TEST(PacketSimulator, CreatedEqualsDeliveredPlusDroppedPlusInFlight) {
  // Overloaded bottleneck with a tiny finite buffer so both outcomes,
  // delivered and dropped, actually occur.
  SingleLinkScenario sc(10'000.0, 18'000.0);
  SimConfig cfg;
  cfg.warmup_s = 1.0;
  cfg.horizon_s = 41.0;
  cfg.link_buffer_pkts = 4;
  cfg.seed = 17;
  const SimResult res =
      PacketSimulator(cfg).run(sc.topology, sc.scheme, sc.tm);
  EXPECT_EQ(res.packets_created,
            res.packets_delivered + res.packets_dropped +
                res.packets_in_flight);
  EXPECT_EQ(res.packets_in_flight, 0u);
  EXPECT_GT(res.packets_delivered, 0u);
  EXPECT_GT(res.packets_dropped, 0u);  // ρ=1.8 with 4-pkt buffer must drop
  // Run-level telemetry sanity.
  EXPECT_GT(res.events_per_wall_s, 0.0);
  EXPECT_GT(res.wall_time_s, 0.0);
  EXPECT_GT(res.peak_queue_pkts, 0u);
  EXPECT_LE(res.peak_queue_pkts, 4u);  // bounded by the buffer cap
  EXPECT_EQ(res.warmup_s, cfg.warmup_s);
  EXPECT_NEAR(res.measured_time_s(), res.simulated_time_s - cfg.warmup_s,
              1e-12);
}

TEST(PacketSimulator, FifoTreatsFlowsEqually) {
  // Flows 0→2 and 1→2 at equal rates meet at node 3, which owns the
  // 3→2 bottleneck (combined ρ = 0.8); one FIFO queue serves them alike.
  topo::Topology t("bottleneck", 4);
  t.add_link(0, 3, 1e9);
  t.add_link(1, 3, 1e9);
  t.add_link(3, 2, 10'000.0);
  routing::RoutingScheme scheme(4);
  scheme.set_path(0, 2, {*t.find_link(0, 3), *t.find_link(3, 2)});
  scheme.set_path(1, 2, {*t.find_link(1, 3), *t.find_link(3, 2)});
  traffic::TrafficMatrix tm(4);
  tm.set_rate_bps(0, 2, 4'000.0);
  tm.set_rate_bps(1, 2, 4'000.0);
  SimConfig cfg;
  cfg.warmup_s = 20.0;
  cfg.horizon_s = 1'020.0;
  cfg.seed = 5;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  const double a =
      res.paths[static_cast<std::size_t>(topo::pair_index(0, 2, 4))]
          .mean_delay_s;
  const double b =
      res.paths[static_cast<std::size_t>(topo::pair_index(1, 2, 4))]
          .mean_delay_s;
  EXPECT_NEAR(a, b, 0.15 * std::max(a, b));
}

TEST(PacketSimulator, PerLinkPeakQueueBoundsRunPeak) {
  // The run-level peak is the max over per-link peaks, and each per-link
  // peak is at least the time-averaged queue depth.
  const topo::Topology t = topo::nsfnet();
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  Rng rng(8);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(t.num_nodes(), 10.0, 50.0, rng);
  traffic::scale_to_max_utilization(tm, t, scheme, 0.7);
  SimConfig cfg;
  cfg.warmup_s = 0.5;
  cfg.horizon_s = 20.5;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  std::size_t max_link_peak = 0;
  for (const LinkStats& ls : res.links) {
    EXPECT_GE(static_cast<double>(ls.peak_queue_pkts), ls.mean_queue_pkts);
    max_link_peak = std::max(max_link_peak, ls.peak_queue_pkts);
  }
  EXPECT_EQ(res.peak_queue_pkts, max_link_peak);
  EXPECT_EQ(res.packets_created,
            res.packets_delivered + res.packets_dropped +
                res.packets_in_flight);
}

// Golden outputs: committed CRC-32s of the bit pattern of every
// deterministic SimResult field (everything but the two wall-clock ones).
// An engine rewrite that keeps the event order keeps these; a change to the
// tie-break, the RNG draw order or any statistic moves them. Recompute them
// only for a deliberate ground-truth change, and say so.
std::uint32_t result_crc(const SimResult& r) {
  std::uint32_t crc = 0;
  const auto put = [&crc](auto v) { crc = util::crc32(&v, sizeof v, crc); };
  const auto count = [&put](std::size_t n) {
    put(static_cast<std::uint64_t>(n));
  };
  for (const PathStats& p : r.paths) {
    count(p.delivered);
    count(p.dropped);
    put(p.mean_delay_s);
    put(p.jitter_s);
    put(0.0);  // the retired p99 field's slot, so the digests stay put
  }
  for (const LinkStats& l : r.links) {
    put(l.utilization);
    put(l.mean_queue_pkts);
    count(l.peak_queue_pkts);
    count(l.tx_pkts);
    count(l.drops);
  }
  put(r.simulated_time_s);
  put(r.warmup_s);
  count(r.total_events);
  count(r.packets_created);
  count(r.packets_delivered);
  count(r.packets_dropped);
  count(r.packets_in_flight);
  count(r.peak_queue_pkts);
  return crc;
}

// NSFNET under uniform traffic scaled so its busiest link sits at `util`.
struct NsfnetScenario {
  explicit NsfnetScenario(double util,
                          const topo::GeneratorOptions& opts = {})
      : topology(topo::nsfnet(opts)),
        scheme(routing::shortest_path_routing(topology)),
        tm(topology.num_nodes()) {
    Rng rng(4);
    tm = traffic::uniform_traffic(topology.num_nodes(), 50.0, 150.0, rng);
    traffic::scale_to_max_utilization(tm, topology, scheme, util);
  }
  SimResult run(const SimConfig& cfg) const {
    return PacketSimulator(cfg).run(topology, scheme, tm);
  }
  topo::Topology topology;
  routing::RoutingScheme scheme;
  traffic::TrafficMatrix tm;
};

SimConfig golden_config() {
  SimConfig cfg;
  cfg.warmup_s = 1.0;
  cfg.horizon_s = 201.0;
  cfg.seed = 2024;
  return cfg;
}

TEST(SimGolden, FifoFiniteBufferDrops) {
  SimConfig cfg = golden_config();
  cfg.link_buffer_pkts = 3;
  const SimResult res = NsfnetScenario(0.95).run(cfg);
  ASSERT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(result_crc(res), 0x4634be7bu);
}

TEST(SimGolden, OnOffArrivals) {
  SimConfig cfg = golden_config();
  cfg.model.arrivals = traffic::ArrivalProcess::kOnOff;
  cfg.model.on_fraction = 0.3;
  cfg.model.mean_on_s = 0.5;
  cfg.model.sizes = traffic::PacketSizeModel::kBimodal;
  EXPECT_EQ(result_crc(NsfnetScenario(0.7).run(cfg)), 0x5797c089u);
}

TEST(SimGolden, PropagationDelay) {
  topo::GeneratorOptions opts;
  opts.prop_delay_s = 0.004;
  SimConfig cfg = golden_config();
  cfg.link_buffer_pkts = 6;
  EXPECT_EQ(result_crc(NsfnetScenario(0.8, opts).run(cfg)), 0x1e3412eau);
}

TEST(SimGolden, HeapScaleBa50) {
  // The 50-node BA topology with every pair active keeps one pending
  // arrival per flow, so the event heap holds about 2 500 events, six
  // 4-ary levels below the root; the propagation delay routes every hop
  // through the slot pool, and the short buffers drop. Recorded on the
  // binary heap.
  Rng topo_rng(50);
  topo::GeneratorOptions opts;
  opts.prop_delay_s = 0.002;
  const topo::Topology t = topo::synthetic_ba(50, 2, topo_rng, opts);
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  Rng rng(4);
  traffic::TrafficMatrix tm =
      traffic::uniform_traffic(t.num_nodes(), 50.0, 150.0, rng);
  traffic::scale_to_max_utilization(tm, t, scheme, 0.9);
  ASSERT_GT(t.num_pairs(), 2'000);
  SimConfig cfg = golden_config();
  cfg.link_buffer_pkts = 4;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  ASSERT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(result_crc(res), 0x704e7202u);
}

TEST(SimGolden, FixedSizeTandemTies) {
  // Equal capacities and fixed sizes make every transmission last exactly
  // 0.1 s, so a completion on one link ties exactly with the completion of
  // the packet it handed to the next link; only the event sequence number
  // orders them.
  const topo::Topology t = topo::line(4, 10'000.0);
  const routing::RoutingScheme scheme = routing::shortest_path_routing(t);
  traffic::TrafficMatrix tm(4);
  tm.set_rate_bps(0, 3, 4'000.0);
  tm.set_rate_bps(1, 3, 3'000.0);
  tm.set_rate_bps(0, 2, 2'000.0);
  SimConfig cfg = golden_config();
  cfg.horizon_s = 401.0;
  cfg.model.sizes = traffic::PacketSizeModel::kFixed;
  const SimResult res = PacketSimulator(cfg).run(t, scheme, tm);
  EXPECT_EQ(result_crc(res), 0x4dc0b4dbu);
}

TEST(HorizonForTargetPackets, ScalesInversely) {
  traffic::TrafficMatrix tm(3);
  tm.set_rate_bps(0, 1, 1'000.0);
  tm.set_rate_bps(1, 2, 1'000.0);
  traffic::TrafficModel model;
  const double h100 = horizon_for_target_packets(tm, model, 1.0, 100.0);
  const double h200 = horizon_for_target_packets(tm, model, 1.0, 200.0);
  EXPECT_GT(h200, h100);
  EXPECT_NEAR((h200 - 1.0) / (h100 - 1.0), 2.0, 1e-9);
}

}  // namespace
}  // namespace rn::sim
