#include "ag/nn.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ag/kernels.h"
#include "ag/optim.h"
#include "execution_scope.h"
#include "gradcheck.h"
#include "util/rng.h"

namespace rn::ag {
namespace {

using rn::testing::expect_gradients_match;

TEST(Dense, OutputShapeAndDeterminism) {
  Rng rng1(3), rng2(3);
  Dense d1(4, 3, Activation::kRelu, rng1, "d");
  Dense d2(4, 3, Activation::kRelu, rng2, "d");
  Tape tape;
  const ValueId x = tape.constant(Tensor(5, 4, 0.5f));
  const Tensor& y1 = tape.value(d1.apply(tape, x));
  const Tensor& y2 = tape.value(d2.apply(tape, x));
  EXPECT_EQ(y1.rows(), 5);
  EXPECT_EQ(y1.cols(), 3);
  for (int i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1[static_cast<std::size_t>(i)],
                    y2[static_cast<std::size_t>(i)]);
  }
}

TEST(Dense, ReluClampsNegative) {
  Rng rng(3);
  Dense d(2, 2, Activation::kRelu, rng, "d");
  Tape tape;
  const Tensor& y = tape.value(d.apply(tape, tape.constant(Tensor(3, 2, 1.0f))));
  for (int i = 0; i < y.size(); ++i) {
    EXPECT_GE(y[static_cast<std::size_t>(i)], 0.0f);
  }
}

TEST(Dense, SigmoidBounded) {
  Rng rng(4);
  Dense d(3, 3, Activation::kSigmoid, rng, "d");
  Tape tape;
  const Tensor& y =
      tape.value(d.apply(tape, tape.constant(Tensor(2, 3, 5.0f))));
  for (int i = 0; i < y.size(); ++i) {
    EXPECT_GT(y[static_cast<std::size_t>(i)], 0.0f);
    EXPECT_LT(y[static_cast<std::size_t>(i)], 1.0f);
  }
}

TEST(Dense, GradCheck) {
  Rng rng(5);
  Dense d(3, 2, Activation::kTanh, rng, "d");
  const Tensor x = Tensor::from_rows({{0.2f, -0.5f, 0.9f},
                                      {1.0f, 0.3f, -0.2f}});
  const Tensor target(2, 2, 0.1f);
  expect_gradients_match(d.params(), [&](Tape& tape) {
    return tape.mse(d.apply(tape, tape.constant(x)), target);
  });
}

TEST(GruCell, HiddenStateShapeAndRange) {
  Rng rng(6);
  GruCell cell(3, 4, rng, "gru");
  EXPECT_EQ(cell.input_dim(), 3);
  EXPECT_EQ(cell.hidden_dim(), 4);
  Tape tape;
  const ValueId x = tape.constant(Tensor(5, 3, 0.5f));
  const ValueId h = tape.constant(Tensor(5, 4, 0.0f));
  const Tensor& h2 = tape.value(cell.step(tape, x, h));
  EXPECT_EQ(h2.rows(), 5);
  EXPECT_EQ(h2.cols(), 4);
  // GRU output is a convex combination of h (0) and tanh-bounded candidate.
  for (int i = 0; i < h2.size(); ++i) {
    EXPECT_GT(h2[static_cast<std::size_t>(i)], -1.0f);
    EXPECT_LT(h2[static_cast<std::size_t>(i)], 1.0f);
  }
}

TEST(GruCell, ZeroUpdateGateKeepsState) {
  Rng rng(7);
  GruCell cell(2, 2, rng, "gru");
  // Force z ≈ 0 by driving the update-gate bias very negative.
  for (Parameter* p : cell.params()) {
    if (p->name == "gru.bz") p->value.fill(-50.0f);
  }
  Tape tape;
  const Tensor h0 = Tensor::from_rows({{0.3f, -0.4f}});
  const ValueId h2 = cell.step(tape, tape.constant(Tensor(1, 2, 1.0f)),
                               tape.constant(h0));
  EXPECT_NEAR(tape.value(h2).at(0, 0), 0.3f, 1e-4);
  EXPECT_NEAR(tape.value(h2).at(0, 1), -0.4f, 1e-4);
}

TEST(GruCell, GradCheckThroughTwoSteps) {
  Rng rng(8);
  GruCell cell(2, 3, rng, "gru");
  const Tensor x1 = Tensor::from_rows({{0.4f, -0.2f}, {0.1f, 0.8f}});
  const Tensor x2 = Tensor::from_rows({{-0.5f, 0.3f}, {0.7f, 0.2f}});
  const Tensor target(2, 3, 0.2f);
  expect_gradients_match(cell.params(), [&](Tape& tape) {
    ValueId h = tape.constant(Tensor(2, 3, 0.0f));
    h = cell.step(tape, tape.constant(x1), h);
    h = cell.step(tape, tape.constant(x2), h);
    return tape.mse(h, target);
  });
}

TEST(Mlp, DimsAndParamCount) {
  Rng rng(9);
  Mlp mlp({4, 8, 8, 2}, rng, "mlp");
  EXPECT_EQ(mlp.in_dim(), 4);
  EXPECT_EQ(mlp.out_dim(), 2);
  // 3 layers × (W, b).
  EXPECT_EQ(mlp.params().size(), 6u);
}

TEST(Mlp, GradCheck) {
  Rng rng(10);
  Mlp mlp({2, 4, 1}, rng, "mlp");
  const Tensor x = Tensor::from_rows({{0.3f, -0.8f}, {1.2f, 0.4f},
                                      {-0.1f, 0.9f}});
  const Tensor target(3, 1, 0.5f);
  expect_gradients_match(mlp.params(), [&](Tape& tape) {
    return tape.mse(mlp.apply(tape, tape.constant(x)), target);
  });
}

// Parameterized over the activation set: output ranges and gradients.
class ActivationSweep : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationSweep, OutputRangeMatchesActivation) {
  Rng rng(21);
  Dense d(3, 4, GetParam(), rng, "d");
  Tape tape;
  Tensor x(6, 3);
  Rng data_rng(22);
  for (int i = 0; i < x.size(); ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<float>(data_rng.uniform(-3.0, 3.0));
  }
  const Tensor& y = tape.value(d.apply(tape, tape.constant(x)));
  for (int i = 0; i < y.size(); ++i) {
    const float v = y[static_cast<std::size_t>(i)];
    switch (GetParam()) {
      case Activation::kRelu:
        EXPECT_GE(v, 0.0f);
        break;
      case Activation::kSigmoid:
        EXPECT_GT(v, 0.0f);
        EXPECT_LT(v, 1.0f);
        break;
      case Activation::kTanh:
        EXPECT_GT(v, -1.0f);
        EXPECT_LT(v, 1.0f);
        break;
      case Activation::kNone:
        break;  // unbounded
    }
  }
}

TEST_P(ActivationSweep, GradCheck) {
  Rng rng(23);
  Dense d(2, 3, GetParam(), rng, "d");
  const Tensor x = Tensor::from_rows({{0.4f, -0.9f}, {1.1f, 0.2f}});
  const Tensor target(2, 3, 0.2f);
  rn::testing::expect_gradients_match(d.params(), [&](Tape& tape) {
    return tape.mse(d.apply(tape, tape.constant(x)), target);
  });
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationSweep,
                         ::testing::Values(Activation::kNone,
                                           Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

Tensor random_tensor(int rows, int cols, unsigned seed) {
  Rng rng(seed);
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// The reference for gru_step_gathered: explicit gather_rows ops feeding the
// composed GRU chain.
ValueId gathered_reference(Tape& tape, const GruCell& cell, ValueId x_src,
                           const std::vector<int>& x_idx, ValueId h_src,
                           const std::vector<int>& h_idx) {
  return composed_gru_step(tape, tape.gather_rows(x_src, x_idx),
                           tape.gather_rows(h_src, h_idx), cell.weights());
}

// gru_step_gathered with the projection of x_src made for this one step.
ValueId projected_step(Tape& tape, const GruCell& cell, ValueId x_src,
                       const std::vector<int>& x_idx, ValueId h_src,
                       const std::vector<int>& h_idx) {
  return tape.gru_step_gathered(cell.project(tape, x_src), x_idx, h_src,
                                h_idx);
}

// Row counts around the fused step's kern::kTileRows-row tiles: a lone
// row, a tile short by one, one tile, one past it, and enough rows that
// four threads split the range into multi-tile chunks with a ragged tail.
const std::vector<int>& tile_edge_rows() {
  static const std::vector<int> rows = {
      1, kern::kTileRows - 1, kern::kTileRows, kern::kTileRows + 1,
      4 * kern::kTileRows + 5};
  return rows;
}

// Runs make(mode) on both tape modes, every available backend, and 1 and 4
// threads (4 with the matmul threshold at 0, so the fused step's tiles
// really are split across chunks), and expects every result bitwise equal
// to the first.
template <typename Make>
void expect_bitwise_everywhere(const Make& make, const std::string& what) {
  std::vector<Tensor> results;
  std::vector<std::string> labels;
  for (const kern::Backend backend :
       {kern::Backend::kScalar, kern::Backend::kAvx2}) {
    if (!kern::backend_available(backend)) continue;
    for (const int threads : {1, 4}) {
      rn::testing::ExecutionScope scope(backend, threads);
      for (const TapeMode mode : {TapeMode::kRecord, TapeMode::kForwardOnly}) {
        for (const bool fused : {false, true}) {
          results.push_back(make(mode, fused));
          labels.push_back(std::string(kern::backend_name(backend)) + " x" +
                           std::to_string(threads) +
                           (mode == TapeMode::kRecord ? " record" : " fwd") +
                           (fused ? " fused" : " reference"));
        }
      }
    }
  }
  ASSERT_GE(results.size(), 8u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(results[0], results[i]))
        << what << ": " << labels[i] << " differs from " << labels[0];
  }
}

TEST(FusedGru, ForwardBitwiseIdenticalToComposed) {
  Rng rng(30);
  GruCell cell(5, 7, rng, "gru");
  for (const int rows : tile_edge_rows()) {
    Tensor x = random_tensor(rows, 5, 31);
    x.at(0, 2) = 0.0f;  // the matmul zero skip, on both operands' paths
    x.at(rows - 1, 4) = -0.0f;
    const Tensor h = random_tensor(rows, 7, 32);
    expect_bitwise_everywhere(
        [&](TapeMode mode, bool fused) {
          Tape tape(mode);
          const ValueId xv = tape.constant(x);
          const ValueId hv = tape.constant(h);
          return tape.value(
              fused ? cell.step(tape, xv, hv)
                    : composed_gru_step(tape, xv, hv, cell.weights()));
        },
        std::to_string(rows) + " rows");
  }
}

TEST(FusedGru, SingleNodeReplacesComposedChain) {
  Rng rng(33);
  GruCell cell(3, 4, rng, "gru");
  const Tensor x = random_tensor(2, 3, 34);
  const Tensor h = random_tensor(2, 4, 35);
  Tape fused_tape;
  cell.step(fused_tape, fused_tape.constant(x), fused_tape.constant(h));
  Tape composed_tape;
  composed_gru_step(composed_tape, composed_tape.constant(x),
                    composed_tape.constant(h), cell.weights());
  // 2 constants + 1 gru node, vs the ~20-node composed expression.
  EXPECT_EQ(fused_tape.num_nodes(), 3u);
  EXPECT_GT(composed_tape.num_nodes(), 10u);
}

TEST(FusedGru, ParameterGradientsMatchComposedBackward) {
  Rng rng(36);
  GruCell cell(4, 6, rng, "gru");
  const Tensor x = random_tensor(9, 4, 37);
  const Tensor h = random_tensor(9, 6, 38);
  const Tensor target(9, 6, 0.1f);
  auto grads = [&](bool fused) {
    for (Parameter* p : cell.params()) p->zero_grad();
    Tape tape;
    const ValueId xv = tape.constant(x);
    const ValueId hv = tape.constant(h);
    const ValueId out = fused ? cell.step(tape, xv, hv)
                              : composed_gru_step(tape, xv, hv, cell.weights());
    tape.backward(tape.mse(out, target));
    std::vector<Tensor> out_grads;
    for (Parameter* p : cell.params()) out_grads.push_back(p->grad);
    return out_grads;
  };
  const std::vector<Tensor> composed = grads(false);
  const std::vector<Tensor> fused = grads(true);
  const std::vector<Parameter*> params = cell.params();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    for (int i = 0; i < composed[pi].size(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      EXPECT_NEAR(fused[pi][k], composed[pi][k],
                  1e-5f * (1.0f + std::abs(composed[pi][k])))
          << "param " << params[pi]->name << " element " << i;
    }
  }
}

TEST(FusedGru, GradCheckThroughFusedStep) {
  Rng rng(39);
  GruCell cell(2, 3, rng, "gru");
  const Tensor x = random_tensor(3, 2, 40);
  const Tensor target(3, 3, 0.2f);
  expect_gradients_match(cell.params(), [&](Tape& tape) {
    ValueId h = tape.constant(Tensor(3, 3, 0.0f));
    h = cell.step(tape, tape.constant(x), h);
    return tape.mse(h, target);
  });
}

TEST(FusedGru, GatheredStepMatchesGatherThenStepBitwise) {
  Rng rng(41);
  GruCell cell(4, 5, rng, "gru");
  const Tensor x_src = random_tensor(6, 4, 42);
  const Tensor h_src = random_tensor(7, 5, 43);
  // Duplicate indices on purpose: the backward must accumulate repeats.
  const std::vector<int> x_idx = {0, 3, 3, 5, 1, 0, 2, 4};
  const std::vector<int> h_idx = {6, 0, 2, 2, 5, 1, 4, 3};
  auto run = [&](bool fused) {
    Tape tape;
    const ValueId xs = tape.constant(x_src);
    const ValueId hs = tape.constant(h_src);
    return tape.value(fused ? projected_step(tape, cell, xs, x_idx, hs, h_idx)
                            : gathered_reference(tape, cell, xs, x_idx, hs,
                                                 h_idx));
  };
  const Tensor composed = run(false);
  EXPECT_EQ(composed.rows(), 8);
  EXPECT_EQ(composed.cols(), 5);
  EXPECT_TRUE(bitwise_equal(composed, run(true)));
}

TEST(FusedGru, GatheredStepRejectsBadIndices) {
  Rng rng(47);
  GruCell cell(2, 3, rng, "gru");
  Tape tape;
  const ValueId x = tape.constant(random_tensor(4, 2, 48));
  const ValueId h = tape.constant(random_tensor(4, 3, 49));
  const GruProjection xw = cell.project(tape, x);
  EXPECT_THROW(tape.gru_step_gathered(xw, {}, h, {}), std::runtime_error);
  EXPECT_THROW(tape.gru_step_gathered(xw, {0}, h, {0, 1}), std::runtime_error);
  EXPECT_THROW(tape.gru_step_gathered(xw, {4}, h, {0}), std::runtime_error);
  EXPECT_THROW(tape.gru_step_gathered(xw, {0}, h, {-1}), std::runtime_error);
}

// A projection carries its x_src and weights, so the step can only be
// handed one from the wrong tape; the check is by identity, so the same
// value id on another tape is still rejected.
TEST(FusedGru, ProjectedStepRejectsProjectionFromAnotherTape) {
  Rng rng(50);
  GruCell cell(2, 3, rng, "gru");
  const Tensor x_src = random_tensor(4, 2, 51);
  const std::vector<int> idx = {0, 3, 3};
  Tape tape;
  const ValueId x = tape.constant(x_src);
  const ValueId h = tape.constant(random_tensor(4, 3, 52));
  Tape other_tape;
  const ValueId other_x = other_tape.constant(x_src);
  ASSERT_EQ(other_x, x);  // same id: only the tape tells them apart

  EXPECT_NO_THROW(tape.gru_step_gathered(cell.project(tape, x), idx, h, idx));
  EXPECT_THROW(
      tape.gru_step_gathered(cell.project(other_tape, other_x), idx, h, idx),
      std::runtime_error);
}

// The projected step against the explicit-gather reference, on both tape
// modes, both backends and at 1 and 4 threads, at every tile-edge row
// count. x_src has an all-zero row and scattered exact and negative zeros,
// so the matmul zero-skip runs on projected and gathered rows alike;
// indices repeat.
TEST(FusedGru, ProjectedStepBitwiseInBothModesAndBackends) {
  Rng rng(53);
  GruCell cell(6, 13, rng, "gru");
  Tensor x_src = random_tensor(70, 6, 54);
  for (int c = 0; c < x_src.cols(); ++c) x_src.at(5, c) = 0.0f;
  for (int r = 0; r < x_src.rows(); r += 3) {
    x_src.at(r, r % 6) = (r % 2 == 0) ? 0.0f : -0.0f;
  }
  const Tensor h_src = random_tensor(90, 13, 55);
  for (const int rows : tile_edge_rows()) {
    std::vector<int> x_idx, h_idx;
    for (int i = 0; i < rows; ++i) {
      x_idx.push_back((i * 7) % 70);
      h_idx.push_back((i * 11) % 90);
    }
    x_idx[0] = 5;  // the all-zero row
    if (rows > 1) x_idx[1] = 5;  // twice
    expect_bitwise_everywhere(
        [&](TapeMode mode, bool fused) {
          Tape tape(mode);
          const ValueId xs = tape.constant(x_src);
          const ValueId hs = tape.constant(h_src);
          return tape.value(
              fused ? projected_step(tape, cell, xs, x_idx, hs, h_idx)
                    : gathered_reference(tape, cell, xs, x_idx, hs, h_idx));
        },
        std::to_string(rows) + " rows");
  }
}

TEST(FusedGru, GradCheckThroughGatheredFusedStep) {
  Rng rng(44);
  GruCell cell(2, 3, rng, "gru");
  const Tensor x_src = random_tensor(4, 2, 45);
  const Tensor h_src = random_tensor(4, 3, 46);
  const std::vector<int> x_idx = {1, 1, 3, 0, 2};
  const std::vector<int> h_idx = {2, 0, 0, 3, 1};
  const Tensor target(5, 3, 0.15f);
  expect_gradients_match(cell.params(), [&](Tape& tape) {
    const ValueId out = projected_step(tape, cell, tape.constant(x_src), x_idx,
                                       tape.constant(h_src), h_idx);
    return tape.mse(out, target);
  });
}

TEST(FusedGru, GatheredSourceGradientsMatchComposed) {
  Rng rng(47);
  GruCell cell(3, 4, rng, "gru");
  Parameter x_src("x_src", random_tensor(5, 3, 48));
  Parameter h_src("h_src", random_tensor(5, 4, 49));
  const std::vector<int> x_idx = {4, 0, 0, 2, 3, 1};
  const std::vector<int> h_idx = {1, 1, 3, 0, 4, 2};
  const Tensor target(6, 4, 0.1f);
  auto source_grads = [&](bool fused) {
    x_src.zero_grad();
    h_src.zero_grad();
    Tape tape;
    const ValueId xs = tape.param(x_src);
    const ValueId hs = tape.param(h_src);
    const ValueId out =
        fused ? projected_step(tape, cell, xs, x_idx, hs, h_idx)
              : gathered_reference(tape, cell, xs, x_idx, hs, h_idx);
    tape.backward(tape.mse(out, target));
    return std::pair<Tensor, Tensor>(x_src.grad, h_src.grad);
  };
  const auto composed = source_grads(false);
  const auto fused = source_grads(true);
  for (int i = 0; i < composed.first.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_NEAR(fused.first[k], composed.first[k],
                1e-5f * (1.0f + std::abs(composed.first[k])));
  }
  for (int i = 0; i < composed.second.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_NEAR(fused.second[k], composed.second[k],
                1e-5f * (1.0f + std::abs(composed.second[k])));
  }
}

// RouteNet's message passing over a tiny graph for T = 2 rounds, with the
// link states a Parameter. Paths 0 = [0, 1, 2], 1 = [3, 1, 0] and 2 = [1]:
// link 0 is hop 0 of path 0 and hop 2 of path 1, and link 1 is read twice
// by hop 1. So each round's projection gathers its gradient from several
// steps and from duplicate rows within one step, and x_src's gradient sums
// over the hops of both rounds (the second through the link update).
TEST(GruProjection, GradCheckSumsOverHopsAndIterations) {
  Rng rng(53);
  GruCell path_cell(2, 3, rng, "path");
  GruCell link_cell(3, 2, rng, "link");
  Parameter x_src("x_src", random_tensor(4, 2, 54));
  const Tensor h_paths0 = random_tensor(3, 3, 55);
  const std::vector<std::vector<int>> hop_paths = {{0, 1, 2}, {0, 1}, {0, 1}};
  const std::vector<std::vector<int>> hop_links = {{0, 3, 1}, {1, 1}, {2, 0}};
  const Tensor target(3, 3, 0.1f);
  std::vector<Parameter*> params = path_cell.params();
  for (Parameter* p : link_cell.params()) params.push_back(p);
  params.push_back(&x_src);
  expect_gradients_match(params, [&](Tape& tape) {
    ValueId h_links = tape.param(x_src);
    ValueId h_paths = tape.constant(h_paths0);
    for (int t = 0; t < 2; ++t) {
      const GruProjection proj = path_cell.project(tape, h_links);
      ValueId aggregated = tape.constant(Tensor(4, 3));
      for (std::size_t s = 0; s < hop_paths.size(); ++s) {
        const ValueId h_next = tape.gru_step_gathered(proj, hop_links[s],
                                                      h_paths, hop_paths[s]);
        h_paths = tape.scatter_rows(h_paths, hop_paths[s], h_next);
        aggregated = tape.segment_sum(aggregated, hop_links[s], h_next);
        tape.release(h_next);
      }
      tape.release(proj.id());
      h_links = link_cell.step(tape, aggregated, h_links);
    }
    return tape.mse(h_paths, target);
  });
}

TEST(Mlp, CanOverfitTinyRegression) {
  // y = 2*x0 - x1 on 8 points; a small MLP must drive MSE near zero.
  Rng rng(11);
  Mlp mlp({2, 16, 1}, rng, "mlp");
  Tensor x(8, 2);
  Tensor y(8, 1);
  Rng data_rng(12);
  for (int i = 0; i < 8; ++i) {
    x.at(i, 0) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    x.at(i, 1) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    y.at(i, 0) = 2.0f * x.at(i, 0) - x.at(i, 1);
  }
  Adam opt(mlp.params(), 3e-2f);
  double final_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    Tape tape;
    const ValueId loss = tape.mse(mlp.apply(tape, tape.constant(x)), y);
    opt.zero_grad();
    tape.backward(loss);
    opt.step();
    final_loss = tape.value(loss).at(0, 0);
  }
  EXPECT_LT(final_loss, 1e-3);
}

}  // namespace
}  // namespace rn::ag
