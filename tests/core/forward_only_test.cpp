// Forward-only tape suite (label: core).
//
// predict_merged runs RouteNet on a forward-only tape: no saved GRU
// activations, no copied indices, and every intermediate released as soon
// as nothing reads it. This suite pins the three promises that mode makes:
//   - its predictions are bitwise equal to a recording forward followed by
//     the same denormalization, on every backend and thread count;
//   - it holds a fraction of the recording tape's memory (arena growth on a
//     fresh thread, whose arena starts empty), and a recording tape in turn
//     holds little more for forward + backward than for its forward;
//   - release is enforced in both modes: a released value cannot be read,
//     and a forward-only tape refuses backward().
// Runs under -DRN_SANITIZE=address with RN_ARENA=0, so a freed tensor goes
// back to the allocator and a read of it is reported; the arena-growth
// tests skip there.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ag/arena.h"
#include "ag/kernels.h"
#include "ag/tape.h"
#include "core/routenet.h"
#include "execution_scope.h"
#include "par/thread_pool.h"
#include "topology/generators.h"

namespace rn::core {
namespace {

using rn::testing::ExecutionScope;

std::vector<dataset::Sample> geant2_samples(int count, std::uint64_t seed) {
  auto topology = std::make_shared<const topo::Topology>(topo::geant2());
  std::vector<dataset::Sample> out;
  for (int i = 0; i < count; ++i) {
    Rng rng(seed + static_cast<std::uint64_t>(i));
    routing::RoutingScheme scheme =
        routing::random_k_shortest_routing(*topology, 3, rng);
    traffic::TrafficMatrix tm = traffic::uniform_traffic(
        topology->num_nodes(), 50.0, 150.0, rng);
    out.push_back(dataset::make_inference_sample(topology, std::move(scheme),
                                                 std::move(tm)));
  }
  return out;
}

std::vector<const dataset::Sample*> pointers(
    const std::vector<dataset::Sample>& samples) {
  std::vector<const dataset::Sample*> out;
  for (const dataset::Sample& s : samples) out.push_back(&s);
  return out;
}

RouteNetConfig small_config(Aggregation aggregation) {
  RouteNetConfig cfg;
  cfg.link_state_dim = 8;
  cfg.path_state_dim = 8;
  cfg.iterations = 3;
  cfg.readout_hidden = 8;
  cfg.aggregation = aggregation;
  return cfg;
}

// predict_merged spelled out on a recording tape: the same GraphBatch, the
// same forward, the same denormalization loop.
std::vector<RouteNet::Prediction> recorded_predict(
    const RouteNet& model, const std::vector<const dataset::Sample*>& ptrs) {
  const GraphBatch batch = GraphBatch::from_samples(
      ptrs, model.normalizer(), /*with_targets=*/false);
  ag::Tape tape;
  const RouteNet::Output fwd = model.forward(tape, batch);
  const ag::Tensor& delay = tape.value(fwd.delay);
  const ag::Tensor& jitter = tape.value(fwd.jitter);
  std::vector<RouteNet::Prediction> out;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    RouteNet::Prediction pred;
    for (int p = 0; p < ptrs[i]->num_pairs(); ++p) {
      const int row = batch.path_offset[i] + p;
      pred.delay_s.push_back(
          model.normalizer().denormalize_delay(delay.at(row, 0)));
      pred.jitter_s.push_back(
          model.normalizer().denormalize_jitter(jitter.at(row, 0)));
    }
    out.push_back(std::move(pred));
  }
  return out;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ForwardOnly, PredictMergedBitwiseEqualsRecordingForward) {
  const std::vector<dataset::Sample> samples = geant2_samples(8, 31);
  const std::vector<const dataset::Sample*> all = pointers(samples);
  const std::vector<const dataset::Sample*> one = {all.front()};
  for (const ag::kern::Backend backend :
       {ag::kern::Backend::kScalar, ag::kern::Backend::kAvx2}) {
    if (!ag::kern::backend_available(backend)) {
      std::printf("[ skipped ] backend %s unavailable on this CPU\n",
                  ag::kern::backend_name(backend));
      continue;
    }
    for (const int threads : {1, 4}) {
      const ExecutionScope scope(backend, threads);
      for (const Aggregation agg : {Aggregation::kSum, Aggregation::kMean}) {
        const RouteNet model(small_config(agg));
        for (const auto* batch : {&one, &all}) {
          const std::vector<RouteNet::Prediction> fast =
              model.predict_merged(*batch);
          const std::vector<RouteNet::Prediction> ref =
              recorded_predict(model, *batch);
          ASSERT_EQ(fast.size(), ref.size());
          for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_TRUE(same_bytes(fast[i].delay_s, ref[i].delay_s) &&
                        same_bytes(fast[i].jitter_s, ref[i].jitter_s))
                << ag::kern::backend_name(backend) << " threads=" << threads
                << " mean=" << (agg == Aggregation::kMean)
                << " batch=" << batch->size() << " sample=" << i;
          }
        }
      }
    }
  }
}

// Bytes the calling thread's arena gains while fn runs on a fresh thread.
// Every tensor fn creates has died by the time it returns, so the growth is
// the high-water mark of simultaneously live tensor storage. An exception
// fn throws is rethrown here, so it fails the test instead of aborting.
std::uint64_t arena_growth_on_fresh_thread(const std::function<void()>& fn) {
  std::uint64_t grown = 0;
  std::exception_ptr error;
  std::thread worker([&] {
    const std::uint64_t before = ag::arena_stats().bytes_held;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    grown = ag::arena_stats().bytes_held - before;
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return grown;
}

TEST(ForwardOnly, HoldsAQuarterOfTheRecordingTapesMemory) {
  if (!ag::arena_enabled()) GTEST_SKIP() << "arena disabled via RN_ARENA=0";
  const ExecutionScope scope(ag::kern::active_backend(), 1);
  const std::vector<dataset::Sample> samples = geant2_samples(8, 47);
  const std::vector<const dataset::Sample*> ptrs = pointers(samples);
  RouteNetConfig cfg = small_config(Aggregation::kSum);
  cfg.iterations = 8;
  const RouteNet model(cfg);

  const std::uint64_t recording = arena_growth_on_fresh_thread(
      [&] { (void)recorded_predict(model, ptrs); });
  const std::uint64_t forward_only =
      arena_growth_on_fresh_thread([&] { (void)model.predict_merged(ptrs); });
  ASSERT_GT(recording, 0u);
  EXPECT_LE(forward_only * 4, recording)
      << "forward-only peak " << forward_only << " B vs recording "
      << recording << " B";
}

// A training step holds little more than its own recording forward: the
// forward keeps only what backward reads, and backward frees each node once
// it has run, so its gradients reuse the buffers the forward let go. If
// backward kept every node until the tape died, the step would peak at the
// whole forward plus a gradient per node. At these shapes (8 Geant2
// scenarios, 8-dim states, T = 8) the step peaks at about 1.09× the
// forward; keeping every node and gradient until the tape dies gives 1.46×.
TEST(ForwardOnly, TrainingStepHoldsLittleMoreThanItsForward) {
  if (!ag::arena_enabled()) GTEST_SKIP() << "arena disabled via RN_ARENA=0";
  const ExecutionScope scope(ag::kern::active_backend(), 1);
  const std::vector<dataset::Sample> samples = geant2_samples(8, 47);
  RouteNetConfig cfg = small_config(Aggregation::kSum);
  cfg.iterations = 8;
  const RouteNet model(cfg);
  const GraphBatch batch = GraphBatch::from_samples(
      pointers(samples), model.normalizer(), /*with_targets=*/false);

  const auto step = [&](bool with_backward) {
    return arena_growth_on_fresh_thread([&] {
      ag::Tape tape;
      const RouteNet::Output out = model.forward(tape, batch);
      if (!with_backward) return;
      const ag::Tensor target(batch.num_paths, 1);
      tape.backward(tape.mse(out.delay, target));
    });
  };
  const std::uint64_t forward = step(false);
  const std::uint64_t training = step(true);
  ASSERT_GT(forward, 0u);
  EXPECT_LE(training * 4, forward * 5)
      << "training step peak " << training << " B vs recording forward "
      << forward << " B";
}

TEST(ForwardOnly, ReadAfterReleaseThrowsInBothModes) {
  for (const ag::TapeMode mode :
       {ag::TapeMode::kRecord, ag::TapeMode::kForwardOnly}) {
    ag::Tape tape(mode);
    const ag::ValueId a =
        tape.constant(ag::Tensor::from_rows({{1.0f, -2.0f}, {3.0f, 4.0f}}));
    const ag::ValueId b = tape.scale(a, 2.0f);
    tape.release(a);
    EXPECT_THROW(tape.value(a), std::runtime_error);
    EXPECT_THROW(tape.relu(a), std::runtime_error);
    EXPECT_THROW(tape.gather_rows(a, {0}), std::runtime_error);
    EXPECT_THROW(tape.release(a), std::runtime_error);  // twice
    EXPECT_EQ(tape.value(b).at(0, 1), -4.0f);  // unreleased values stay
  }
}

TEST(ForwardOnly, RecordingTapeStillBackpropagatesThroughReleasedValues) {
  // A recording tape frees a released value unless a backward reads it:
  // one_minus's backward reads no value, so y goes at once and the gradient
  // is the same as without the release.
  ag::Parameter p("p", ag::Tensor::from_rows({{0.5f, -1.5f, 2.0f}}));
  const auto grad_of = [&p](bool release) {
    p.zero_grad();
    ag::Tape tape;
    const ag::ValueId x = tape.param(p);
    const ag::ValueId y = tape.mul(x, x);
    const ag::ValueId loss = tape.reduce_mean(tape.one_minus(y));
    if (release) tape.release(y);
    tape.backward(loss);
    return p.grad;
  };
  const ag::Tensor plain = grad_of(false);
  const ag::Tensor released = grad_of(true);
  EXPECT_EQ(std::memcmp(plain.data(), released.data(),
                        static_cast<std::size_t>(plain.size()) *
                            sizeof(float)),
            0);
}

TEST(ForwardOnly, BackwardOnAForwardOnlyTapeThrows) {
  ag::Parameter p("p", ag::Tensor::from_rows({{1.0f, 2.0f}}));
  ag::Tape tape(ag::TapeMode::kForwardOnly);
  const ag::ValueId loss = tape.reduce_mean(tape.param(p));
  EXPECT_FALSE(tape.recording());
  EXPECT_THROW(tape.backward(loss), std::runtime_error);
}

}  // namespace
}  // namespace rn::core
