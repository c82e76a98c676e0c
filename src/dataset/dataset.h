// Dataset pipeline: one Sample is the tuple the paper's datasets contain —
// (topology, routing scheme, traffic matrix) → simulated per-pair mean
// delay and jitter. The generator reproduces §2.1's recipe at configurable
// scale: for each sample it draws a routing scheme among the k shortest
// paths, a traffic matrix shape, and a traffic intensity, then runs the
// packet simulator to obtain targets. On disk, samples live in RNDS1
// shards (shard.h) and are read back through stream.h.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "routing/routing.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace rn::dataset {

struct Sample {
  std::shared_ptr<const topo::Topology> topology;
  routing::RoutingScheme routing;
  traffic::TrafficMatrix tm;

  // Targets, indexed by topo::pair_index.
  std::vector<double> delay_s;
  std::vector<double> jitter_s;
  // A path is valid when the simulator delivered enough packets for its
  // statistics to be trustworthy; invalid paths stay in the message-passing
  // graph (their traffic loads links) but are excluded from losses/metrics.
  std::vector<std::uint8_t> valid;

  double max_link_utilization = 0.0;  // offered load, not measured

  int num_pairs() const { return static_cast<int>(delay_s.size()); }
  int num_valid() const;
};

// Wraps an unlabeled scenario triple as a Sample for inference: targets are
// zeroed and every pair is marked valid, sized from the topology. This is
// THE way to build a Sample without simulator labels — positional brace
// initialization silently misassigns fields when Sample grows.
Sample make_inference_sample(std::shared_ptr<const topo::Topology> topology,
                             routing::RoutingScheme routing,
                             traffic::TrafficMatrix tm);

enum class MatrixKind { kUniform, kGravity, kHotspot };

struct GeneratorConfig {
  // Routing variety: pick per pair among the k shortest paths.
  int k_paths = 3;
  // Traffic intensity sweep: each sample's matrix is scaled so its
  // most-loaded link sits at a utilization drawn from [min_util, max_util].
  double min_util = 0.30;
  double max_util = 0.85;
  // Matrix shapes to alternate through.
  std::vector<MatrixKind> matrix_kinds = {
      MatrixKind::kUniform, MatrixKind::kGravity, MatrixKind::kHotspot};
  traffic::TrafficModel model;
  // Simulation sizing.
  double warmup_s = 2.0;
  double target_pkts_per_flow = 150.0;
  std::size_t min_delivered = 20;  // validity threshold per path
};

// Every random decision behind sample i (routing draw, matrix kind, matrix
// values, intensity, simulation seed) is derived from (seed, i) alone, so a
// dataset is a pure function of its seed: generation order, interleaving
// with other generators, and thread count never change the output.
class DatasetGenerator {
 public:
  DatasetGenerator(GeneratorConfig cfg, std::uint64_t seed);

  // The scenario at an explicit sample index — the deterministic core both
  // entry points below delegate to. Thread-safe.
  Sample generate_at(std::shared_ptr<const topo::Topology> topology,
                     std::uint64_t sample_index) const;

  // One (routing, matrix, intensity) scenario on the given topology, at the
  // next sample index.
  Sample generate(std::shared_ptr<const topo::Topology> topology);

  // `count` scenarios at explicit global indices [first_index, first_index
  // + count), simulated concurrently on the global thread pool (bitwise
  // identical at any thread count); optional progress callback (completed,
  // count), serialized and monotone. This is the shard generator's entry
  // point: it never touches the internal cursor. Indices are u64
  // end-to-end — paper-scale corpora overflow int.
  std::vector<Sample> generate_range(
      std::shared_ptr<const topo::Topology> topology,
      std::uint64_t first_index, std::uint64_t count,
      const std::function<void(std::uint64_t, std::uint64_t)>& progress = {})
      const;

  // `count` scenarios at the internal cursor, advancing it.
  std::vector<Sample> generate_many(
      std::shared_ptr<const topo::Topology> topology, std::uint64_t count,
      const std::function<void(std::uint64_t, std::uint64_t)>& progress = {});

  const GeneratorConfig& config() const { return cfg_; }

 private:
  GeneratorConfig cfg_;
  std::uint64_t seed_;
  std::uint64_t next_index_ = 0;
};

// Normalization constants shared between training and inference. Inputs are
// scaled to O(1); targets are z-scored in log space by default (delay and
// jitter are positive and span decades, so log-space residuals align with
// the paper's relative-error metric). `log_space = false` switches to plain
// z-scoring of raw seconds — an ablation that loses the positivity guarantee
// and weights absolute rather than relative error.
struct Normalizer {
  double capacity_scale = 1.0;  // multiply capacities by this
  double traffic_scale = 1.0;   // multiply per-pair rates by this
  bool log_space = true;
  // When log_space, these are stats of log(delay); otherwise of raw delay.
  double log_delay_mean = 0.0;
  double log_delay_std = 1.0;
  double log_jitter_mean = 0.0;
  double log_jitter_std = 1.0;

  double normalize_delay(double delay_s) const;
  double denormalize_delay(double z) const;
  double normalize_jitter(double jitter_s) const;
  double denormalize_jitter(double z) const;
};

// Fits a Normalizer on (the valid paths of) a training set.
Normalizer fit_normalizer(const std::vector<Sample>& samples,
                          bool log_space = true);

// Deterministic shuffled split; fraction goes to the first return.
std::pair<std::vector<Sample>, std::vector<Sample>> split_dataset(
    std::vector<Sample> samples, double first_fraction, std::uint64_t seed);

}  // namespace rn::dataset
