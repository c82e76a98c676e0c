#include "ag/optim.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

namespace rn::ag {
namespace {

// One optimization step result on f(p) = mean((p - t)^2).
double quadratic_loss_after(Adam& opt, Parameter& p, const Tensor& target,
                            int steps) {
  double loss = 0.0;
  for (int i = 0; i < steps; ++i) {
    Tape tape;
    const ValueId l = tape.mse(tape.param(p), target);
    opt.zero_grad();
    tape.backward(l);
    opt.step();
    loss = tape.value(l).at(0, 0);
  }
  return loss;
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter p("p", Tensor::from_rows({{5.0f, -3.0f}}));
  const Tensor target = Tensor::from_rows({{1.0f, 2.0f}});
  Adam opt({&p}, 0.1f);
  const double loss = quadratic_loss_after(opt, p, target, 400);
  EXPECT_LT(loss, 1e-5);
  EXPECT_EQ(opt.step_count(), 400);
}

TEST(Adam, HandlesSparseLargeGradientsBetterThanRawScale) {
  // Adam normalizes per-coordinate: a 1000× gradient imbalance should not
  // prevent convergence.
  Parameter p("p", Tensor::from_rows({{5.0f, -3.0f}}));
  Tensor target = Tensor::from_rows({{1.0f, 2.0f}});
  const Tensor weight = Tensor::from_rows({{1000.0f, 1.0f}});
  Adam opt({&p}, 0.05f);
  for (int i = 0; i < 600; ++i) {
    Tape tape;
    const ValueId v = tape.param(p);
    // loss = (1000*(p0-t0)^2 + (p1-t1)^2) / 2 (a weighted mean)
    const ValueId d = tape.sub(v, tape.constant(target));
    const ValueId d2 = tape.mul(d, d);
    const ValueId loss = tape.reduce_mean(tape.mul(d2, tape.constant(weight)));
    opt.zero_grad();
    tape.backward(loss);
    opt.step();
  }
  EXPECT_NEAR(p.value.at(0, 0), 1.0f, 1e-2);
  EXPECT_NEAR(p.value.at(0, 1), 2.0f, 1e-2);
}

TEST(ZeroGrad, ClearsAccumulatedGradients) {
  Parameter p("p", Tensor::scalar(1.0f));
  Adam opt({&p}, 0.1f);
  {
    Tape tape;
    tape.backward(tape.reduce_mean(tape.param(p)));
  }
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 1.0f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 0.0f);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Parameter p("p", Tensor::from_rows({{0.0f, 0.0f}}));
  p.grad.at(0, 0) = 3.0f;
  p.grad.at(0, 1) = 4.0f;  // norm 5
  const double pre = clip_grad_norm({&p}, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(std::sqrt(p.grad.squared_norm()), 1.0, 1e-6);
  EXPECT_NEAR(p.grad.at(0, 0), 0.6f, 1e-6);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter p("p", Tensor::from_rows({{0.0f}}));
  p.grad.at(0, 0) = 0.5f;
  const double pre = clip_grad_norm({&p}, 1.0);
  EXPECT_DOUBLE_EQ(pre, 0.5);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 0.5f);
}

TEST(Adam, StateRoundTripMakesNextStepBitwiseIdentical) {
  // Save Adam's moments + step count after a few steps, rebuild a fresh
  // optimizer from that state, and check the NEXT step lands on bitwise
  // identical parameters and moments — the property checkpoint/resume
  // relies on.
  const Tensor start = Tensor::from_rows({{5.0f, -3.0f}});
  const Tensor target = Tensor::from_rows({{1.0f, 2.0f}});

  Parameter p("p", start);
  Adam opt({&p}, 0.1f);
  quadratic_loss_after(opt, p, target, 3);

  // Snapshot: parameter value, moments, and step count after 3 steps.
  const Tensor p_after3 = p.value;
  std::vector<Tensor> m = opt.moments_m();
  std::vector<Tensor> v = opt.moments_v();
  const long steps = opt.step_count();
  ASSERT_EQ(steps, 3);

  // Continue the original for one more step.
  quadratic_loss_after(opt, p, target, 1);

  // Fresh parameter + optimizer restored from the snapshot.
  Parameter q("p", p_after3);
  Adam restored({&q}, 0.1f);
  restored.set_state(steps, std::move(m), std::move(v));
  quadratic_loss_after(restored, q, target, 1);

  EXPECT_EQ(restored.step_count(), opt.step_count());
  EXPECT_EQ(0, std::memcmp(p.value.data(), q.value.data(),
                           sizeof(float) *
                               static_cast<std::size_t>(p.value.size())));
  EXPECT_EQ(0, std::memcmp(opt.moments_m()[0].data(),
                           restored.moments_m()[0].data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               p.value.size())));
  EXPECT_EQ(0, std::memcmp(opt.moments_v()[0].data(),
                           restored.moments_v()[0].data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               p.value.size())));
}

TEST(Adam, SetStateRejectsBadInput) {
  Parameter p("p", Tensor::from_rows({{1.0f, 2.0f}}));
  Adam opt({&p}, 0.1f);
  // Wrong tensor count.
  EXPECT_THROW(opt.set_state(1, {}, {}), std::runtime_error);
  // Wrong shape.
  EXPECT_THROW(opt.set_state(1, {Tensor(2, 2)}, {Tensor(2, 2)}),
               std::runtime_error);
  // Negative step count.
  EXPECT_THROW(opt.set_state(-1, {Tensor(1, 2)}, {Tensor(1, 2)}),
               std::runtime_error);
}

TEST(Optimizer, RejectsNullParams) {
  EXPECT_THROW(Adam({nullptr}, 0.1f), std::runtime_error);
}

TEST(Optimizer, RejectsBadLearningRate) {
  Parameter p("p", Tensor::scalar(0.0f));
  EXPECT_THROW(Adam({&p}, 0.0f), std::runtime_error);
  EXPECT_THROW(Adam({&p}, -1.0f), std::runtime_error);
}

}  // namespace
}  // namespace rn::ag
