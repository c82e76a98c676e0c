#include "dataset/dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "dataset/stream.h"
#include "obs/event.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "util/stats.h"

namespace rn::dataset {

namespace {
// Floor for log-space targets; below ~1 µs the simulator resolution and the
// log transform both stop being meaningful.
constexpr double kMinPositive = 1e-6;

// Stream tags separating the per-sample scenario RNG from the simulator
// seed (util/rng.h derive_seed).
constexpr std::uint64_t kScenarioStream = 0x5ce7a210;
constexpr std::uint64_t kSimStream = 0x51317ead;
}  // namespace

int Sample::num_valid() const {
  int n = 0;
  for (std::uint8_t v : valid) n += v ? 1 : 0;
  return n;
}

Sample make_inference_sample(std::shared_ptr<const topo::Topology> topology,
                             routing::RoutingScheme routing,
                             traffic::TrafficMatrix tm) {
  RN_CHECK(topology != nullptr, "inference sample needs a topology");
  RN_CHECK(tm.num_nodes() == topology->num_nodes(),
           "traffic matrix does not match the topology's node count");
  const auto pairs = static_cast<std::size_t>(topology->num_pairs());
  return Sample{std::move(topology),
                std::move(routing),
                std::move(tm),
                /*delay_s=*/std::vector<double>(pairs, 0.0),
                /*jitter_s=*/std::vector<double>(pairs, 0.0),
                /*valid=*/std::vector<std::uint8_t>(pairs, 1),
                /*max_link_utilization=*/0.0};
}

DatasetGenerator::DatasetGenerator(GeneratorConfig cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed) {
  RN_CHECK(cfg_.k_paths >= 1, "k_paths must be at least 1");
  RN_CHECK(0.0 < cfg_.min_util && cfg_.min_util <= cfg_.max_util &&
               cfg_.max_util < 1.0,
           "utilization sweep must satisfy 0 < min <= max < 1");
  RN_CHECK(!cfg_.matrix_kinds.empty(), "need at least one matrix kind");
}

Sample DatasetGenerator::generate_at(
    std::shared_ptr<const topo::Topology> topology,
    std::uint64_t sample_index) const {
  RN_CHECK(topology != nullptr, "null topology");
  const topo::Topology& topo = *topology;
  const int n = topo.num_nodes();

  Rng rng(derive_seed(seed_, kScenarioStream, sample_index));
  routing::RoutingScheme scheme =
      cfg_.k_paths == 1
          ? routing::shortest_path_routing(topo)
          : routing::random_k_shortest_routing(topo, cfg_.k_paths, rng);

  const MatrixKind kind = cfg_.matrix_kinds[static_cast<std::size_t>(
      sample_index % cfg_.matrix_kinds.size())];
  traffic::TrafficMatrix tm = [&] {
    switch (kind) {
      case MatrixKind::kGravity:
        return traffic::gravity_traffic(n, 1.0e6, rng);
      case MatrixKind::kHotspot:
        return traffic::hotspot_traffic(n, std::max(1, n / 6), 100.0, 4.0,
                                        rng);
      case MatrixKind::kUniform:
      default:
        return traffic::uniform_traffic(n, 50.0, 150.0, rng);
    }
  }();
  const double target_util = rng.uniform(cfg_.min_util, cfg_.max_util);
  traffic::scale_to_max_utilization(tm, topo, scheme, target_util);

  sim::SimConfig sim_cfg;
  sim_cfg.model = cfg_.model;
  sim_cfg.warmup_s = cfg_.warmup_s;
  sim_cfg.horizon_s = sim::horizon_for_target_packets(
      tm, cfg_.model, cfg_.warmup_s, cfg_.target_pkts_per_flow);
  sim_cfg.seed = derive_seed(seed_, kSimStream, sample_index);
  const sim::PacketSimulator simulator(sim_cfg);
  const sim::SimResult result = simulator.run(topo, scheme, tm);

  Sample sample{std::move(topology), std::move(scheme), std::move(tm),
                {},  {},  {},  target_util};
  const int pairs = topo.num_pairs();
  sample.delay_s.resize(static_cast<std::size_t>(pairs));
  sample.jitter_s.resize(static_cast<std::size_t>(pairs));
  sample.valid.resize(static_cast<std::size_t>(pairs));
  for (int idx = 0; idx < pairs; ++idx) {
    const sim::PathStats& ps = result.paths[static_cast<std::size_t>(idx)];
    sample.delay_s[static_cast<std::size_t>(idx)] = ps.mean_delay_s;
    sample.jitter_s[static_cast<std::size_t>(idx)] = ps.jitter_s;
    sample.valid[static_cast<std::size_t>(idx)] =
        ps.delivered >= cfg_.min_delivered &&
                ps.mean_delay_s > kMinPositive
            ? 1
            : 0;
  }
  return sample;
}

Sample DatasetGenerator::generate(
    std::shared_ptr<const topo::Topology> topology) {
  return generate_at(std::move(topology), next_index_++);
}

std::vector<Sample> DatasetGenerator::generate_range(
    std::shared_ptr<const topo::Topology> topology, std::uint64_t first_index,
    std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) const {
  RN_CHECK(count <= static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()),
           "sample count overflows the scheduler range");
  // Simulations are independent given their index-derived seeds; one task
  // per sample (simulations are seconds-long, so task overhead is noise).
  obs::Stopwatch watch;
  obs::TraceSpan gen_span("dataset.generate_many");
  gen_span.arg("samples", static_cast<std::int64_t>(count));
  std::vector<std::optional<Sample>> slots(static_cast<std::size_t>(count));
  std::mutex progress_mu;
  std::uint64_t completed = 0;
  par::parallel_for(0, static_cast<std::int64_t>(count), /*grain=*/1,
                    [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      obs::TraceSpan sample_span("dataset.sample");
      sample_span.arg("index", i);
      slots[static_cast<std::size_t>(i)] =
          generate_at(topology, first_index + static_cast<std::uint64_t>(i));
      if (progress) {
        std::lock_guard<std::mutex> lock(progress_mu);
        progress(++completed, count);
      }
    }
  });

  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::optional<Sample>& slot : slots) out.push_back(std::move(*slot));

  const double wall_s = watch.elapsed_s();
  obs::EventSink& sink = obs::EventSink::global();
  if (sink.enabled() && count > 0) {
    obs::Event ev("dataset.generate_many");
    ev.f("samples", static_cast<std::int64_t>(count))
        .f("threads", par::global_threads())
        .f("wall_s", wall_s)
        .f("samples_per_s",
           wall_s > 0.0 ? static_cast<double>(count) / wall_s : 0.0);
    sink.emit(ev);
  }
  return out;
}

std::vector<Sample> DatasetGenerator::generate_many(
    std::shared_ptr<const topo::Topology> topology, std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  const std::uint64_t first = next_index_;
  next_index_ += count;
  return generate_range(std::move(topology), first, count, progress);
}

double Normalizer::normalize_delay(double delay_s) const {
  const double x = log_space ? std::log(std::max(delay_s, kMinPositive))
                             : delay_s;
  return (x - log_delay_mean) / log_delay_std;
}

double Normalizer::denormalize_delay(double z) const {
  const double x = z * log_delay_std + log_delay_mean;
  return log_space ? std::exp(x) : x;
}

double Normalizer::normalize_jitter(double jitter_s) const {
  const double x = log_space ? std::log(std::max(jitter_s, kMinPositive))
                             : jitter_s;
  return (x - log_jitter_mean) / log_jitter_std;
}

double Normalizer::denormalize_jitter(double z) const {
  const double x = z * log_jitter_std + log_jitter_mean;
  return log_space ? std::exp(x) : x;
}

Normalizer fit_normalizer(const std::vector<Sample>& samples,
                          bool log_space) {
  RN_CHECK(!samples.empty(), "cannot fit normalizer on empty dataset");
  VectorSampleSource source(samples);
  return fit_normalizer(source, log_space);
}

std::pair<std::vector<Sample>, std::vector<Sample>> split_dataset(
    std::vector<Sample> samples, double first_fraction, std::uint64_t seed) {
  RN_CHECK(first_fraction >= 0.0 && first_fraction <= 1.0,
           "split fraction out of [0,1]");
  Rng rng(seed);
  // Fisher–Yates shuffle.
  for (std::size_t i = samples.size(); i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(samples[i - 1], samples[j]);
  }
  const auto cut = static_cast<std::size_t>(
      std::round(first_fraction * static_cast<double>(samples.size())));
  std::vector<Sample> first(
      std::make_move_iterator(samples.begin()),
      std::make_move_iterator(samples.begin() + static_cast<std::ptrdiff_t>(cut)));
  std::vector<Sample> second(
      std::make_move_iterator(samples.begin() + static_cast<std::ptrdiff_t>(cut)),
      std::make_move_iterator(samples.end()));
  return {std::move(first), std::move(second)};
}

}  // namespace rn::dataset
