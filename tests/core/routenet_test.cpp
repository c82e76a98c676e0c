#include "core/routenet.h"

#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "ag/arena.h"
#include "ag/kernels.h"
#include "ag/nn.h"
#include "execution_scope.h"
#include "gradcheck.h"
#include "topology/generators.h"

namespace rn::core {
namespace {

dataset::Sample make_sample(std::shared_ptr<const topo::Topology> topology,
                            std::uint64_t seed) {
  Rng rng(seed);
  routing::RoutingScheme scheme =
      routing::random_k_shortest_routing(*topology, 2, rng);
  traffic::TrafficMatrix tm = traffic::uniform_traffic(
      topology->num_nodes(), 50.0, 150.0, rng);
  dataset::Sample s{topology, std::move(scheme), std::move(tm),
                    {},       {},                {},
                    0.5};
  const int pairs = topology->num_pairs();
  s.delay_s.resize(static_cast<std::size_t>(pairs));
  s.jitter_s.resize(static_cast<std::size_t>(pairs));
  s.valid.assign(static_cast<std::size_t>(pairs), 1);
  for (int idx = 0; idx < pairs; ++idx) {
    // Synthetic but structured targets: delay grows with hop count.
    const double hops =
        static_cast<double>(s.routing.path_by_index(idx).size());
    s.delay_s[static_cast<std::size_t>(idx)] = 0.01 * hops;
    s.jitter_s[static_cast<std::size_t>(idx)] = 0.002 * hops;
  }
  return s;
}

RouteNetConfig tiny_config() {
  RouteNetConfig cfg;
  cfg.link_state_dim = 6;
  cfg.path_state_dim = 6;
  cfg.iterations = 2;
  cfg.readout_hidden = 8;
  return cfg;
}

TEST(RouteNet, ForwardShapes) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  const dataset::Sample s = make_sample(topology, 1);
  RouteNet model(tiny_config());
  const GraphBatch batch =
      GraphBatch::from_samples({&s}, model.normalizer(), false);
  ag::Tape tape;
  const RouteNet::Output out = model.forward(tape, batch);
  EXPECT_EQ(tape.value(out.delay).rows(), batch.num_paths);
  EXPECT_EQ(tape.value(out.delay).cols(), 1);
  EXPECT_EQ(tape.value(out.jitter).rows(), batch.num_paths);
}

TEST(RouteNet, DeterministicForward) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  const dataset::Sample s = make_sample(topology, 2);
  RouteNet m1(tiny_config());
  RouteNet m2(tiny_config());
  const RouteNet::Prediction p1 = m1.predict(s);
  const RouteNet::Prediction p2 = m2.predict(s);
  ASSERT_EQ(p1.delay_s.size(), p2.delay_s.size());
  for (std::size_t i = 0; i < p1.delay_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.delay_s[i], p2.delay_s[i]);
  }
}

TEST(RouteNet, PredictionsArePositive) {
  // Log-space readout guarantees positive delay/jitter estimates.
  auto topology = std::make_shared<const topo::Topology>(topo::nsfnet());
  const dataset::Sample s = make_sample(topology, 3);
  RouteNet model(tiny_config());
  const RouteNet::Prediction pred = model.predict(s);
  for (double d : pred.delay_s) EXPECT_GT(d, 0.0);
  for (double j : pred.jitter_s) EXPECT_GT(j, 0.0);
}

TEST(RouteNet, TrafficAffectsPrediction) {
  // The GNN must actually read the traffic matrix: doubling one flow's
  // traffic must change some prediction.
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  dataset::Sample s = make_sample(topology, 4);
  RouteNet model(tiny_config());
  // Realistic input scaling — with the identity normalizer the raw traffic
  // values (~100) saturate the GRU gates and mask the sensitivity.
  dataset::Normalizer norm;
  norm.capacity_scale = 1.0 / 10'000.0;
  norm.traffic_scale = 1.0 / 100.0;
  model.set_normalizer(norm);
  const RouteNet::Prediction before = model.predict(s);
  const auto [src, dst] = topo::pair_from_index(0, 5);
  s.tm.set_rate_bps(src, dst, s.tm.rate_bps(src, dst) * 100.0);
  const RouteNet::Prediction after = model.predict(s);
  double max_change = 0.0;
  for (std::size_t i = 0; i < before.delay_s.size(); ++i) {
    max_change = std::max(max_change,
                          std::abs(after.delay_s[i] - before.delay_s[i]));
  }
  EXPECT_GT(max_change, 0.0);
}

TEST(RouteNet, TopologyCapacityAffectsPrediction) {
  auto slow = std::make_shared<const topo::Topology>(topo::ring(5, 1'000.0));
  auto fast = std::make_shared<const topo::Topology>(topo::ring(5, 40'000.0));
  RouteNet model(tiny_config());
  dataset::Normalizer norm;
  norm.capacity_scale = 1.0 / 40'000.0;
  norm.traffic_scale = 1.0 / 100.0;
  model.set_normalizer(norm);
  const dataset::Sample s_slow = make_sample(slow, 5);
  dataset::Sample s_fast = make_sample(fast, 5);
  // Same routing & traffic (same seed), different capacities.
  const RouteNet::Prediction a = model.predict(s_slow);
  const RouteNet::Prediction b = model.predict(s_fast);
  double max_change = 0.0;
  for (std::size_t i = 0; i < a.delay_s.size(); ++i) {
    max_change =
        std::max(max_change, std::abs(a.delay_s[i] - b.delay_s[i]));
  }
  EXPECT_GT(max_change, 0.0);
}

TEST(RouteNet, GeneralizesAcrossTopologySizesStructurally) {
  // The same trained weights must run on graphs of any size — the core
  // architectural property. Just exercise forward on 5-, 14- and 24-node
  // graphs with one model instance.
  RouteNet model(tiny_config());
  for (auto topology :
       {std::make_shared<const topo::Topology>(topo::ring(5)),
        std::make_shared<const topo::Topology>(topo::nsfnet()),
        std::make_shared<const topo::Topology>(topo::geant2())}) {
    const dataset::Sample s = make_sample(topology, 6);
    const RouteNet::Prediction pred = model.predict(s);
    EXPECT_EQ(static_cast<int>(pred.delay_s.size()), topology->num_pairs());
  }
}

TEST(RouteNet, GradCheckThroughMessagePassing) {
  // Full end-to-end finite-difference check on a tiny graph; this covers the
  // composition gather → GRU → scatter → segment_sum → GRU → readout.
  auto topology = std::make_shared<const topo::Topology>(topo::line(3));
  const dataset::Sample s = make_sample(topology, 7);
  RouteNetConfig cfg;
  cfg.link_state_dim = 3;
  cfg.path_state_dim = 3;
  cfg.iterations = 2;
  cfg.readout_hidden = 4;
  RouteNet model(cfg);
  const GraphBatch batch =
      GraphBatch::from_samples({&s}, model.normalizer(), true);
  rn::testing::expect_gradients_match(
      model.params(),
      [&](ag::Tape& tape) {
        const RouteNet::Output out = model.forward(tape, batch);
        const ag::ValueId sel = tape.gather_rows(out.delay, batch.valid_paths);
        return tape.mse(sel, batch.delay_targets);
      },
      /*eps=*/1e-2f, /*rel_tol=*/8e-2f, /*abs_tol=*/2e-4f);
}

TEST(RouteNet, BatchedForwardMatchesPerSampleForward) {
  // Merging samples into one GraphBatch must not change any prediction:
  // the graphs are disjoint, so batching is purely an indexing transform.
  auto ring5 = std::make_shared<const topo::Topology>(topo::ring(5));
  auto nsf = std::make_shared<const topo::Topology>(topo::nsfnet());
  const dataset::Sample s1 = make_sample(ring5, 21);
  const dataset::Sample s2 = make_sample(nsf, 22);
  RouteNet model(tiny_config());
  dataset::Normalizer norm;
  norm.capacity_scale = 1.0 / 10'000.0;
  norm.traffic_scale = 1.0 / 100.0;
  model.set_normalizer(norm);

  const GraphBatch merged =
      GraphBatch::from_samples({&s1, &s2}, norm, false);
  ag::Tape tape;
  const RouteNet::Output out = model.forward(tape, merged);
  const ag::Tensor& merged_delay = tape.value(out.delay);

  const RouteNet::Prediction p1 = model.predict(s1);
  const RouteNet::Prediction p2 = model.predict(s2);
  for (int i = 0; i < s1.num_pairs(); ++i) {
    EXPECT_NEAR(norm.denormalize_delay(merged_delay.at(i, 0)),
                p1.delay_s[static_cast<std::size_t>(i)],
                1e-6 * p1.delay_s[static_cast<std::size_t>(i)] + 1e-12)
        << "sample 1 path " << i;
  }
  const int off = s1.num_pairs();
  for (int i = 0; i < s2.num_pairs(); ++i) {
    EXPECT_NEAR(norm.denormalize_delay(merged_delay.at(off + i, 0)),
                p2.delay_s[static_cast<std::size_t>(i)],
                1e-6 * p2.delay_s[static_cast<std::size_t>(i)] + 1e-12)
        << "sample 2 path " << i;
  }
}

TEST(RouteNet, PredictBatchMatchesPredict) {
  auto ring5 = std::make_shared<const topo::Topology>(topo::ring(5));
  auto nsf = std::make_shared<const topo::Topology>(topo::nsfnet());
  std::vector<dataset::Sample> samples;
  samples.push_back(make_sample(ring5, 31));
  samples.push_back(make_sample(nsf, 32));
  samples.push_back(make_sample(ring5, 33));
  RouteNet model(tiny_config());
  dataset::Normalizer norm;
  norm.capacity_scale = 1.0 / 10'000.0;
  norm.traffic_scale = 1.0 / 100.0;
  model.set_normalizer(norm);
  // Batch size 2 forces a split across forward passes.
  const std::vector<RouteNet::Prediction> batched =
      model.predict_batch(samples, 2);
  ASSERT_EQ(batched.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const RouteNet::Prediction single = model.predict(samples[i]);
    ASSERT_EQ(batched[i].delay_s.size(), single.delay_s.size());
    for (std::size_t p = 0; p < single.delay_s.size(); ++p) {
      EXPECT_NEAR(batched[i].delay_s[p], single.delay_s[p],
                  1e-9 * single.delay_s[p]);
      EXPECT_NEAR(batched[i].jitter_s[p], single.jitter_s[p],
                  1e-9 * single.jitter_s[p]);
    }
  }
}

TEST(RouteNet, SaveLoadRoundTrip) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  const dataset::Sample s = make_sample(topology, 8);
  RouteNet model(tiny_config());
  dataset::Normalizer norm;
  norm.log_delay_mean = -3.5;
  norm.log_delay_std = 0.8;
  model.set_normalizer(norm);
  const std::string path = ::testing::TempDir() + "routenet.model";
  model.save(path);
  const RouteNet loaded = RouteNet::load(path);
  EXPECT_EQ(loaded.config().link_state_dim, model.config().link_state_dim);
  EXPECT_DOUBLE_EQ(loaded.normalizer().log_delay_mean, -3.5);
  const RouteNet::Prediction a = model.predict(s);
  const RouteNet::Prediction b = loaded.predict(s);
  for (std::size_t i = 0; i < a.delay_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delay_s[i], b.delay_s[i]);
  }
}

TEST(RouteNet, MeanAggregationChangesOutput) {
  auto topology = std::make_shared<const topo::Topology>(topo::ring(5));
  const dataset::Sample s = make_sample(topology, 9);
  RouteNetConfig sum_cfg = tiny_config();
  RouteNetConfig mean_cfg = tiny_config();
  mean_cfg.aggregation = Aggregation::kMean;
  RouteNet sum_model(sum_cfg);
  RouteNet mean_model(mean_cfg);  // identical weights (same seed)
  dataset::Normalizer norm;
  norm.capacity_scale = 1.0 / 10'000.0;
  norm.traffic_scale = 1.0 / 100.0;
  sum_model.set_normalizer(norm);
  mean_model.set_normalizer(norm);
  const RouteNet::Prediction a = sum_model.predict(s);
  const RouteNet::Prediction b = mean_model.predict(s);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.delay_s.size(); ++i) {
    diff = std::max(diff, std::abs(a.delay_s[i] - b.delay_s[i]));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(RouteNet, MeanAggregationGradCheck) {
  auto topology = std::make_shared<const topo::Topology>(topo::line(3));
  const dataset::Sample s = make_sample(topology, 10);
  RouteNetConfig cfg;
  cfg.link_state_dim = 3;
  cfg.path_state_dim = 3;
  cfg.iterations = 2;
  cfg.readout_hidden = 4;
  cfg.aggregation = Aggregation::kMean;
  RouteNet model(cfg);
  const GraphBatch batch =
      GraphBatch::from_samples({&s}, model.normalizer(), true);
  rn::testing::expect_gradients_match(
      model.params(),
      [&](ag::Tape& tape) {
        const RouteNet::Output out = model.forward(tape, batch);
        const ag::ValueId sel = tape.gather_rows(out.delay, batch.valid_paths);
        return tape.mse(sel, batch.delay_targets);
      },
      /*eps=*/1e-2f, /*rel_tol=*/8e-2f, /*abs_tol=*/2e-4f);
}

TEST(RouteNet, SaveLoadPreservesAblationConfig) {
  RouteNetConfig cfg = tiny_config();
  cfg.aggregation = Aggregation::kMean;
  RouteNet model(cfg);
  dataset::Normalizer norm;
  norm.log_space = false;
  norm.log_delay_mean = 0.25;
  model.set_normalizer(norm);
  const std::string path = ::testing::TempDir() + "routenet_v2.model";
  model.save(path);
  const RouteNet loaded = RouteNet::load(path);
  EXPECT_EQ(loaded.config().aggregation, Aggregation::kMean);
  EXPECT_FALSE(loaded.normalizer().log_space);
  EXPECT_DOUBLE_EQ(loaded.normalizer().log_delay_mean, 0.25);
}

TEST(RouteNet, ParameterCountMatchesArchitecture) {
  RouteNetConfig cfg = tiny_config();
  RouteNet model(cfg);
  // 2 GRUs: 3×(in×h + h×h + h) each; 2 MLPs: (p×r + r) + (r×1 + 1).
  const std::size_t gru_path =
      3 * (6 * 6 + 6 * 6 + 6);
  const std::size_t gru_link = gru_path;
  const std::size_t mlp = (6 * 8 + 8) + (8 * 1 + 1);
  EXPECT_EQ(model.num_parameters(), gru_path + gru_link + 2 * mlp);
}

TEST(RouteNet, RejectsBadConfig) {
  RouteNetConfig cfg;
  cfg.iterations = 0;
  EXPECT_THROW(RouteNet{cfg}, std::runtime_error);
}

TEST(RouteNet, PredictMergedBitwiseEqualAcrossKernelBackends) {
  // The kernel-table contract at model level: a whole Geant2 forward —
  // matmuls, index ops and the GRU gate nonlinearities — must give the same
  // bits under the scalar and avx2 backends. Two widths: the default
  // 16-wide states (full vectors) and 13 (every row ends in a ragged tail).
  if (!ag::kern::backend_available(ag::kern::Backend::kAvx2)) {
    GTEST_SKIP() << "avx2 backend not available on this build/CPU";
  }
  auto geant2 = std::make_shared<const topo::Topology>(topo::geant2());
  const dataset::Sample s = make_sample(geant2, 71);
  const std::vector<const dataset::Sample*> ptrs{&s};
  for (const int dim : {16, 13}) {
    RouteNetConfig cfg;
    cfg.link_state_dim = dim;
    cfg.path_state_dim = dim;
    const RouteNet model(cfg);
    const ag::kern::Backend saved =
        ag::kern::set_kernel_backend(ag::kern::Backend::kScalar);
    const std::vector<RouteNet::Prediction> scalar = model.predict_merged(ptrs);
    ag::kern::set_kernel_backend(ag::kern::Backend::kAvx2);
    const std::vector<RouteNet::Prediction> avx2 = model.predict_merged(ptrs);
    ag::kern::set_kernel_backend(saved);
    ASSERT_EQ(scalar.size(), 1u);
    ASSERT_EQ(avx2.size(), 1u);
    const auto bytes_equal = [](const std::vector<double>& a,
                                const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(bytes_equal(scalar[0].delay_s, avx2[0].delay_s))
        << "dim " << dim;
    EXPECT_TRUE(bytes_equal(scalar[0].jitter_s, avx2[0].jitter_s))
        << "dim " << dim;
  }
}

TEST(RouteNet, PredictMergedSteadyStateZeroTensorAllocs) {
  // The serving hot path: after warm-up, a predict_merged loop over the
  // same workload must perform ZERO fresh tensor allocations — every
  // buffer comes from the arena free lists.
  if (!ag::arena_enabled()) GTEST_SKIP() << "arena disabled via RN_ARENA=0";
  auto ring5 = std::make_shared<const topo::Topology>(topo::ring(5));
  auto nsf = std::make_shared<const topo::Topology>(topo::nsfnet());
  std::vector<dataset::Sample> samples;
  samples.push_back(make_sample(ring5, 61));
  samples.push_back(make_sample(nsf, 62));
  std::vector<const dataset::Sample*> ptrs;
  for (const dataset::Sample& s : samples) ptrs.push_back(&s);
  RouteNet model(tiny_config());
  for (int i = 0; i < 3; ++i) model.predict_merged(ptrs);  // warm up

  const std::uint64_t fresh_before = ag::tensor_fresh_allocs();
  std::vector<RouteNet::Prediction> last;
  for (int i = 0; i < 20; ++i) last = model.predict_merged(ptrs);
  EXPECT_EQ(ag::tensor_fresh_allocs(), fresh_before)
      << "warm predict_merged loop allocated fresh tensor storage";
  ASSERT_EQ(last.size(), samples.size());
  for (const RouteNet::Prediction& p : last) {
    for (double d : p.delay_s) EXPECT_GT(d, 0.0);
  }
}

// Bytes of one tensor of n floats as the arena holds it: its power-of-two
// size class, at least 64 floats.
std::uint64_t class_bytes(long long n) {
  std::uint64_t floats = 64;
  while (floats < static_cast<std::uint64_t>(n)) floats <<= 1;
  return floats * sizeof(float);
}

// The forward-only working set of one predict_merged, pinned by a figure
// derived from the batch's shapes. On a fresh thread the arena starts
// empty, and every tensor has returned to it when the call ends, so the
// bytes it then holds are the sum, over size classes, of the most tensors
// of that class alive at once. The four terms that scale with paths or
// hops are each alive once:
//   - the path state, P×d;
//   - one hop's output, at most P×d (the first hop has every path): it is
//     added into the link aggregate and freed before the next hop runs;
//   - the round's link projection, 3L×d;
//   - the readout hidden layer, P×h: its bias add and ReLU write into the
//     matmul's buffer.
// The slack covers everything else, each term rounded up to its class:
//   - the later hops' outputs: each reuses the first hop's freed buffer or
//     holds one buffer in a smaller class, and the smaller classes sum to
//     less than the first hop's, so together less than one more P×d class;
//   - four L×d states: the initial link state, the link state, the
//     aggregate and the link GRU's output;
//   - three P×1 columns (the path features and the two outputs) and the
//     link features;
//   - 64 KiB for the parameter copies and the GRU tile scratch, each under
//     32 KiB.
// Streaming the messages is what this pins: held until the link update and
// then stacked, the messages would add about twice the hop count × d
// floats, several times the slack.
TEST(RouteNet, ForwardOnlyWorkingSetIsBounded) {
  if (!ag::arena_enabled()) GTEST_SKIP() << "arena disabled via RN_ARENA=0";
  const rn::testing::ExecutionScope scope(ag::kern::active_backend(), 1);
  auto geant2 = std::make_shared<const topo::Topology>(topo::geant2());
  std::vector<dataset::Sample> samples;
  for (std::uint64_t i = 0; i < 8; ++i) {
    samples.push_back(make_sample(geant2, 81 + i));
  }
  std::vector<const dataset::Sample*> ptrs;
  for (const dataset::Sample& s : samples) ptrs.push_back(&s);
  RouteNetConfig cfg;
  cfg.link_state_dim = 32;
  cfg.path_state_dim = 32;
  cfg.iterations = 8;
  cfg.readout_hidden = 64;
  const RouteNet model(cfg);

  std::uint64_t held = 0;
  std::exception_ptr error;
  std::thread worker([&] {
    const std::uint64_t before = ag::arena_stats().bytes_held;
    try {
      (void)model.predict_merged(ptrs);
    } catch (...) {
      error = std::current_exception();
    }
    held = ag::arena_stats().bytes_held - before;
  });
  worker.join();
  if (error) std::rethrow_exception(error);

  const GraphBatch batch =
      GraphBatch::from_samples(ptrs, model.normalizer(), false);
  const long long P = batch.num_paths, L = batch.num_links;
  const long long d = cfg.path_state_dim, h = cfg.readout_hidden;
  const std::uint64_t terms = class_bytes(P * d) + class_bytes(P * d) +
                              class_bytes(3 * L * d) + class_bytes(P * h);
  const std::uint64_t slack = class_bytes(P * d) + 4 * class_bytes(L * d) +
                              3 * class_bytes(P) + class_bytes(L) +
                              64 * 1024;
  EXPECT_LE(held, terms + slack) << "working set " << held << " B, terms "
                                 << terms << " B, slack " << slack << " B";
}

}  // namespace
}  // namespace rn::core
