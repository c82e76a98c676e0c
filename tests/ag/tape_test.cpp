#include "ag/tape.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "ag/arena.h"
#include "ag/nn.h"
#include "gradcheck.h"
#include "util/rng.h"

namespace rn::ag {
namespace {

using rn::testing::expect_gradients_match;

TEST(TapeForward, AddSubMul) {
  Tape tape;
  const ValueId a = tape.constant(Tensor::from_rows({{1.0f, 2.0f}}));
  const ValueId b = tape.constant(Tensor::from_rows({{3.0f, -1.0f}}));
  EXPECT_FLOAT_EQ(tape.value(tape.add(a, b)).at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.sub(a, b)).at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.mul(a, b)).at(0, 1), -2.0f);
}

TEST(TapeForward, ShapeMismatchThrows) {
  Tape tape;
  const ValueId a = tape.constant(Tensor(1, 2));
  const ValueId b = tape.constant(Tensor(2, 2));
  EXPECT_THROW(tape.add(a, b), std::runtime_error);
  EXPECT_THROW(tape.mul(a, b), std::runtime_error);
}

TEST(TapeForward, AddBiasBroadcasts) {
  Tape tape;
  const ValueId m = tape.constant(Tensor::from_rows({{1.0f, 2.0f},
                                                     {3.0f, 4.0f}}));
  const ValueId bias = tape.constant(Tensor::from_rows({{10.0f, 20.0f}}));
  const Tensor& y = tape.value(tape.add_bias(m, bias));
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24.0f);
}

// The activations consume their operand: each writes into its buffer, and
// the operand cannot be read afterwards.
TEST(TapeForward, Nonlinearities) {
  Tape tape;
  const auto x = [&] {
    return tape.constant(Tensor::from_rows({{0.0f, -1.0f, 2.0f}}));
  };
  const auto consumed = [&](ValueId a, ValueId (Tape::*op)(ValueId)) {
    const float* buffer = tape.value(a).data();
    const ValueId y = (tape.*op)(a);
    EXPECT_EQ(tape.value(y).data(), buffer) << "operand was copied";
    EXPECT_THROW(tape.value(a), std::runtime_error);
    return y;
  };
  const Tensor& sig = tape.value(consumed(x(), &Tape::sigmoid));
  EXPECT_NEAR(sig.at(0, 0), 0.5f, 1e-6);
  const Tensor& th = tape.value(consumed(x(), &Tape::tanh));
  EXPECT_NEAR(th.at(0, 2), std::tanh(2.0f), 1e-6);
  const Tensor& re = tape.value(consumed(x(), &Tape::relu));
  EXPECT_FLOAT_EQ(re.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(re.at(0, 2), 2.0f);
  const Tensor& om = tape.value(tape.one_minus(x()));
  EXPECT_FLOAT_EQ(om.at(0, 1), 2.0f);
}

TEST(TapeForward, GatherScatterSegment) {
  Tape tape;
  const ValueId a = tape.constant(
      Tensor::from_rows({{1.0f}, {2.0f}, {3.0f}}));
  const ValueId g = tape.gather_rows(a, {2, 0, 2});
  EXPECT_FLOAT_EQ(tape.value(g).at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(tape.value(g).at(2, 0), 3.0f);

  // Before the scatter, which consumes a. The sum adds into its base.
  const ValueId seg = tape.segment_sum(
      tape.constant(Tensor::from_rows({{0.5f}, {-1.0f}})), {1, 0, 1}, a);
  EXPECT_FLOAT_EQ(tape.value(seg).at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(tape.value(seg).at(1, 0), 3.0f);

  const ValueId rows = tape.constant(Tensor::from_rows({{10.0f}, {20.0f}}));
  const ValueId sc = tape.scatter_rows(a, {0, 2}, rows);
  EXPECT_FLOAT_EQ(tape.value(sc).at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(tape.value(sc).at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(tape.value(sc).at(2, 0), 20.0f);
}

// scatter_rows consumes its base in both modes: an unsaved base lends its
// buffer to the output, and any later read or release of it fails.
TEST(TapeForward, ScatterConsumesItsBase) {
  for (const TapeMode mode : {TapeMode::kRecord, TapeMode::kForwardOnly}) {
    Tape tape(mode);
    const ValueId a = tape.constant(
        Tensor::from_rows({{1.0f, -1.0f}, {2.0f, -2.0f}, {3.0f, -3.0f}}));
    const float* base_buffer = tape.value(a).data();
    const ValueId rows = tape.constant(Tensor::from_rows({{7.0f, 8.0f}}));
    const ValueId sc = tape.scatter_rows(a, {1}, rows);
    EXPECT_EQ(tape.value(sc).data(), base_buffer) << "base was copied";
    EXPECT_FLOAT_EQ(tape.value(sc).at(0, 1), -1.0f);
    EXPECT_FLOAT_EQ(tape.value(sc).at(1, 0), 7.0f);
    EXPECT_FLOAT_EQ(tape.value(sc).at(2, 1), -3.0f);
    EXPECT_THROW(tape.value(a), std::runtime_error);
    EXPECT_THROW(tape.gather_rows(a, {0}), std::runtime_error);
    EXPECT_THROW(tape.release(a), std::runtime_error);
    EXPECT_THROW(tape.scatter_rows(a, {0}, rows), std::runtime_error);
  }
}

// segment_sum consumes its base under scatter_rows' rule: an unsaved base
// lends its buffer, while a base that a recorded backward reads (here mul's
// operand) or that is also the rows operand is copied. Either way any later
// read or release of it fails.
TEST(TapeForward, SegmentSumConsumesItsBase) {
  const Tensor base = Tensor::from_rows({{1.0f, -1.0f}, {2.0f, -2.0f},
                                         {3.0f, -3.0f}});
  const Tensor rows = Tensor::from_rows({{10.0f, 20.0f}, {30.0f, 40.0f},
                                         {50.0f, 60.0f}});
  for (const TapeMode mode : {TapeMode::kRecord, TapeMode::kForwardOnly}) {
    Tape tape(mode);
    const ValueId a = tape.constant(base);
    const float* base_buffer = tape.value(a).data();
    const ValueId r = tape.constant(rows);
    const ValueId y = tape.segment_sum(a, {2, 0, 2}, r);
    EXPECT_EQ(tape.value(y).data(), base_buffer) << "base was copied";
    EXPECT_FLOAT_EQ(tape.value(y).at(0, 1), 39.0f);
    EXPECT_FLOAT_EQ(tape.value(y).at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(tape.value(y).at(2, 0), 63.0f);
    EXPECT_THROW(tape.value(a), std::runtime_error);
    EXPECT_THROW(tape.release(a), std::runtime_error);
    EXPECT_THROW(tape.segment_sum(a, {0}, r), std::runtime_error);
    EXPECT_FLOAT_EQ(tape.value(r).at(1, 1), 40.0f);  // rows stay readable
  }
  {
    Tape tape;
    const ValueId a = tape.constant(base);
    const ValueId sq = tape.mul(a, a);
    const float* base_buffer = tape.value(a).data();
    const ValueId y = tape.segment_sum(a, {1}, tape.constant(Tensor(1, 2)));
    EXPECT_NE(tape.value(y).data(), base_buffer) << "saved base was taken";
    EXPECT_FLOAT_EQ(tape.value(sq).at(2, 1), 9.0f);
    EXPECT_THROW(tape.value(a), std::runtime_error);
    EXPECT_THROW(tape.release(a), std::runtime_error);
  }
  for (const TapeMode mode : {TapeMode::kRecord, TapeMode::kForwardOnly}) {
    Tape tape(mode);
    const ValueId a = tape.constant(base);
    const float* base_buffer = tape.value(a).data();
    const ValueId y = tape.segment_sum(a, {1, 1, 0}, a);
    EXPECT_NE(tape.value(y).data(), base_buffer) << "aliased base was taken";
    EXPECT_FLOAT_EQ(tape.value(y).at(0, 0), 4.0f);
    EXPECT_FLOAT_EQ(tape.value(y).at(1, 1), -5.0f);
    EXPECT_FLOAT_EQ(tape.value(y).at(2, 0), 3.0f);
    EXPECT_THROW(tape.value(a), std::runtime_error);
    EXPECT_THROW(tape.release(a), std::runtime_error);
  }
}

// A base the recorded backward reads (here mul's operand) is copied, not
// taken: the mul's gradient needs the pre-scatter values.
TEST(TapeBackward, ScatterCopiesASavedBase) {
  Parameter base("base", Tensor::from_rows({{0.5f, -0.3f}, {-0.2f, 0.9f},
                                            {0.8f, 0.1f}, {0.0f, -0.7f}}));
  Parameter rows("rows", Tensor::from_rows({{1.5f, 0.4f}, {-1.0f, 0.6f}}));
  {
    Tape tape;
    const ValueId b = tape.param(base);
    const ValueId sq = tape.mul(b, b);
    const float* base_buffer = tape.value(b).data();
    const ValueId sc = tape.scatter_rows(b, {3, 1}, tape.param(rows));
    EXPECT_NE(tape.value(sc).data(), base_buffer) << "saved base was taken";
    EXPECT_FLOAT_EQ(tape.value(sc).at(0, 0), 0.5f);
    EXPECT_FLOAT_EQ(tape.value(sc).at(3, 1), 0.4f);
    EXPECT_FLOAT_EQ(tape.value(sq).at(1, 1), 0.9f * 0.9f);
    EXPECT_THROW(tape.value(b), std::runtime_error);
  }
  const Tensor target(4, 2, 0.2f);
  expect_gradients_match({&base, &rows}, [&](Tape& tape) {
    const ValueId b = tape.param(base);
    const ValueId sq = tape.mul(b, b);
    const ValueId sc = tape.scatter_rows(b, {3, 1}, tape.param(rows));
    return tape.mse(tape.add(sc, sq), target);
  });
}

// relu passes −0.0 and NaN through bit for bit, and its backward leaves the
// gradient of every masked entry untouched even when the incoming gradient
// there is NaN.
TEST(TapeForward, ReluIsBitwiseOnSignedZeroAndNaN) {
  const float nan = std::nanf("");
  Parameter p("p", Tensor::from_rows({{-0.0f, nan, -1.0f, 2.0f}}));
  p.zero_grad();
  Tape tape;
  const ValueId x = tape.param(p);
  const ValueId y = tape.relu(x);
  const Tensor expected = Tensor::from_rows({{-0.0f, nan, 0.0f, 2.0f}});
  EXPECT_EQ(std::memcmp(tape.value(y).data(), expected.data(),
                        4 * sizeof(float)),
            0);
  // d loss / d y = c / 4: NaN on the three masked entries, 0.75 on the
  // live one.
  const ValueId c = tape.constant(Tensor::from_rows({{nan, nan, nan, 3.0f}}));
  tape.backward(tape.reduce_mean(tape.mul(y, c)));
  const Tensor want = Tensor::from_rows({{0.0f, 0.0f, 0.0f, 0.75f}});
  EXPECT_EQ(std::memcmp(p.grad.data(), want.data(), 4 * sizeof(float)), 0);
}

TEST(TapeForward, ScatterDuplicateIndexThrows) {
  Tape tape;
  const ValueId a = tape.constant(Tensor(3, 1));
  const ValueId rows = tape.constant(Tensor(2, 1));
  EXPECT_THROW(tape.scatter_rows(a, {1, 1}, rows), std::runtime_error);
}

TEST(TapeForward, Reductions) {
  Tape tape;
  const ValueId a = tape.constant(Tensor::from_rows({{1.0f, 2.0f},
                                                     {3.0f, 4.0f}}));
  EXPECT_FLOAT_EQ(tape.value(tape.reduce_mean(a)).at(0, 0), 2.5f);
}

TEST(TapeForward, Losses) {
  Tape tape;
  const ValueId pred = tape.constant(Tensor::from_rows({{1.0f, 3.0f}}));
  const Tensor target = Tensor::from_rows({{0.0f, 1.0f}});
  EXPECT_FLOAT_EQ(tape.value(tape.mse(pred, target)).at(0, 0), 2.5f);
}

TEST(TapeBackward, RootMustBeScalar) {
  Tape tape;
  Parameter p("p", Tensor::from_rows({{1.0f, 2.0f}}));
  const ValueId v = tape.param(p);
  EXPECT_THROW(tape.backward(v), std::runtime_error);
}

TEST(TapeBackward, SimpleChain) {
  // loss = mean((2p)^2) with p = [1, -3] → dloss/dp_i = 8 p_i / n = 4 p_i.
  Parameter p("p", Tensor::from_rows({{1.0f, -3.0f}}));
  Tape tape;
  const ValueId x = tape.scale(tape.param(p), 2.0f);
  const ValueId loss = tape.reduce_mean(tape.mul(x, x));
  p.zero_grad();
  tape.backward(loss);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(p.grad.at(0, 1), -12.0f);
}

TEST(TapeBackward, GradAccumulatesAcrossBackwards) {
  Parameter p("p", Tensor::scalar(2.0f));
  for (int i = 0; i < 2; ++i) {
    Tape tape;
    const ValueId loss = tape.reduce_mean(tape.param(p));
    tape.backward(loss);
  }
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 2.0f);  // 1 per backward
}

// --- Finite-difference checks: every op's backward ----------------------------

TEST(GradCheck, MatmulAddBias) {
  Parameter w("w", Tensor::from_rows({{0.3f, -0.2f}, {0.1f, 0.4f}}));
  Parameter b("b", Tensor::from_rows({{0.05f, -0.1f}}));
  const Tensor x = Tensor::from_rows({{1.0f, 2.0f}, {-1.0f, 0.5f},
                                      {0.3f, 0.9f}});
  const Tensor target(3, 2, 0.25f);
  expect_gradients_match({&w, &b}, [&](Tape& tape) {
    const ValueId y =
        tape.add_bias(tape.matmul(tape.constant(x), tape.param(w)),
                      tape.param(b));
    return tape.mse(y, target);
  });
}

TEST(GradCheck, ElementwiseOps) {
  Parameter a("a", Tensor::from_rows({{0.4f, -0.7f}, {1.2f, 0.1f}}));
  Parameter b("b", Tensor::from_rows({{-0.3f, 0.8f}, {0.2f, -1.1f}}));
  const Tensor target(2, 2, 0.1f);
  expect_gradients_match({&a, &b}, [&](Tape& tape) {
    const ValueId va = tape.param(a);
    const ValueId vb = tape.param(b);
    const ValueId y = tape.add(tape.mul(va, vb),
                               tape.sub(tape.one_minus(va), vb));
    return tape.mse(y, target);
  });
}

TEST(GradCheck, Nonlinearities) {
  Parameter a("a", Tensor::from_rows({{0.4f, -0.7f, 1.3f, -2.0f}}));
  const Tensor target(1, 4, 0.3f);
  expect_gradients_match({&a}, [&](Tape& tape) {
    // Each activation consumes its operand, so each reads its own node.
    const ValueId y = tape.add(
        tape.sigmoid(tape.param(a)),
        tape.add(tape.tanh(tape.param(a)), tape.relu(tape.param(a))));
    return tape.mse(y, target);
  });
}

// Row blocks stacked in order, as segment_sum adds over a zero base with
// disjoint ids, then scaled.
TEST(GradCheck, ConcatSliceScale) {
  Parameter a("a", Tensor::from_rows({{0.5f}, {-0.2f}}));
  Parameter b("b", Tensor::from_rows({{1.1f}, {0.7f}}));
  const auto stack = [&](Tape& tape, const std::vector<Parameter*>& blocks) {
    const int rows = 2 * static_cast<int>(blocks.size());
    ValueId out = tape.constant(Tensor(rows, 1));
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      const int r0 = 2 * static_cast<int>(k);
      out = tape.segment_sum(out, {r0, r0 + 1}, tape.param(*blocks[k]));
    }
    return out;
  };
  {
    Tape tape;
    const ValueId cr = stack(tape, {&a, &b});
    EXPECT_EQ(tape.value(cr).rows(), 4);
    EXPECT_FLOAT_EQ(tape.value(cr).at(1, 0), -0.2f);
    EXPECT_FLOAT_EQ(tape.value(cr).at(3, 0), 0.7f);
  }
  // a appears twice, so its gradient accumulates over both blocks.
  expect_gradients_match({&a, &b}, [&](Tape& tape) {
    return tape.mse(tape.scale(stack(tape, {&a, &b, &a}), 1.5f),
                    Tensor(6, 1, 0.0f));
  });
}

TEST(GradCheck, GatherRowsWithDuplicates) {
  Parameter a("a", Tensor::from_rows({{0.5f, 1.0f}, {-0.2f, 0.3f},
                                      {0.8f, -0.9f}}));
  const Tensor target(4, 2, 0.1f);
  expect_gradients_match({&a}, [&](Tape& tape) {
    const ValueId g = tape.gather_rows(tape.param(a), {2, 0, 2, 1});
    return tape.mse(g, target);
  });
}

TEST(GradCheck, ScatterRows) {
  Parameter base("base", Tensor::from_rows({{0.5f}, {-0.2f}, {0.8f},
                                            {0.0f}}));
  Parameter rows("rows", Tensor::from_rows({{1.5f}, {-1.0f}}));
  const Tensor target(4, 1, 0.2f);
  expect_gradients_match({&base, &rows}, [&](Tape& tape) {
    const ValueId y =
        tape.scatter_rows(tape.param(base), {3, 1}, tape.param(rows));
    return tape.mse(y, target);
  });
}

TEST(TapeForward, ScaleRows) {
  Tape tape;
  const ValueId a = tape.constant(Tensor::from_rows({{1.0f, 2.0f},
                                                     {3.0f, 4.0f}}));
  const Tensor& y = tape.value(tape.scale_rows(a, {2.0f, 0.5f}));
  EXPECT_FLOAT_EQ(y.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 1.5f);
}

TEST(TapeForward, ScaleRowsWrongCountThrows) {
  Tape tape;
  const ValueId a = tape.constant(Tensor(3, 2));
  EXPECT_THROW(tape.scale_rows(a, {1.0f, 2.0f}), std::runtime_error);
}

TEST(GradCheck, ScaleRows) {
  Parameter a("a", Tensor::from_rows({{0.5f, 1.0f}, {-0.2f, 0.3f},
                                      {0.8f, -0.9f}}));
  const Tensor target(3, 2, 0.1f);
  expect_gradients_match({&a}, [&](Tape& tape) {
    return tape.mse(tape.scale_rows(tape.param(a), {2.0f, 0.0f, -1.5f}),
                    target);
  });
}

TEST(GradCheck, SegmentSum) {
  Parameter a("a", Tensor::from_rows({{0.5f, 0.1f}, {-0.2f, 0.4f},
                                      {0.8f, -0.3f}, {1.0f, 0.2f}}));
  const Tensor target(3, 2, 0.25f);
  expect_gradients_match({&a}, [&](Tape& tape) {
    const ValueId y =
        tape.segment_sum(tape.constant(Tensor(3, 2)), {2, 0, 2, 1},
                         tape.param(a));
    return tape.mse(y, target);
  });
}

// The accumulate form RouteNet's link update uses: a trainable base, and a
// segment id repeated within one call (2) and across two calls (0 and 2).
TEST(GradCheck, SegmentSumAccumulatesAcrossCalls) {
  Parameter base("base", Tensor::from_rows({{0.3f, -0.6f}, {0.9f, 0.2f},
                                            {-0.4f, 0.7f}}));
  Parameter r1("r1", Tensor::from_rows({{0.5f, 0.1f}, {-0.2f, 0.4f},
                                        {0.8f, -0.3f}}));
  Parameter r2("r2", Tensor::from_rows({{1.0f, 0.2f}, {-0.7f, 0.6f}}));
  const Tensor target(3, 2, 0.25f);
  expect_gradients_match({&base, &r1, &r2}, [&](Tape& tape) {
    const ValueId s1 =
        tape.segment_sum(tape.param(base), {2, 0, 2}, tape.param(r1));
    const ValueId s2 = tape.segment_sum(s1, {0, 2}, tape.param(r2));
    return tape.mse(tape.mul(s2, s2), target);
  });
}

TEST(GradCheck, ReduceAndLossVariants) {
  Parameter a("a", Tensor::from_rows({{0.5f, -1.2f}, {2.0f, 0.3f}}));
  const Tensor target = Tensor::from_rows({{0.0f, 1.0f}, {1.5f, -0.5f}});
  expect_gradients_match({&a}, [&](Tape& tape) {
    const ValueId va = tape.param(a);
    const ValueId l1 = tape.mse(va, target);
    const ValueId l2 = tape.reduce_mean(tape.mul(va, va));
    return tape.add(l1, l2);
  });
}

TEST(Dropout, ZeroRateIsIdentity) {
  Rng rng(1);
  Tape tape;
  const ValueId a = tape.constant(Tensor::from_rows({{1.0f, -2.0f}}));
  const Tensor& y = tape.value(tape.dropout(a, 0.0f, rng));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -2.0f);
}

TEST(Dropout, PreservesExpectationAndZeroesSome) {
  Rng rng(2);
  Tape tape;
  const ValueId a = tape.constant(Tensor(1, 4000, 1.0f));
  const Tensor& y = tape.value(tape.dropout(a, 0.4f, rng));
  int zeros = 0;
  double sum = 0.0;
  for (int i = 0; i < y.size(); ++i) {
    const float v = y[static_cast<std::size_t>(i)];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5);
    }
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.4, 0.03);
  EXPECT_NEAR(sum / y.size(), 1.0, 0.05);  // inverted scaling keeps E[x]
}

TEST(Dropout, BackwardUsesSameMask) {
  Rng rng(3);
  Parameter p("p", Tensor(1, 64, 2.0f));
  Tape tape;
  const ValueId dropped = tape.dropout(tape.param(p), 0.5f, rng);
  const ValueId loss = tape.reduce_mean(dropped);
  const Tensor y = tape.value(dropped);  // backward() frees it
  p.zero_grad();
  tape.backward(loss);
  for (int i = 0; i < y.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (y[k] == 0.0f) {
      EXPECT_FLOAT_EQ(p.grad[k], 0.0f);
    } else {
      EXPECT_FLOAT_EQ(p.grad[k], 2.0f / 64.0f);  // 1/(1-0.5) over 64 entries
    }
  }
}

TEST(Dropout, RejectsBadRate) {
  Rng rng(4);
  Tape tape;
  const ValueId a = tape.constant(Tensor(1, 2));
  EXPECT_THROW(tape.dropout(a, 1.0f, rng), std::runtime_error);
  EXPECT_THROW(tape.dropout(a, -0.1f, rng), std::runtime_error);
}

TEST(TapeBackward, ParameterUsedTwiceAccumulatesBothPaths) {
  // loss = mean(p) + mean(2p) over 2 entries → dloss/dp = 1.5 everywhere.
  Parameter p("p", Tensor::from_rows({{1.0f, 2.0f}}));
  Tape tape;
  const ValueId a = tape.param(p);
  const ValueId b = tape.scale(tape.param(p), 2.0f);
  const ValueId loss = tape.add(tape.reduce_mean(a), tape.reduce_mean(b));
  p.zero_grad();
  tape.backward(loss);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(p.grad.at(0, 1), 1.5f);
}

TEST(GradCheck, SharedParameterAcrossBranches) {
  Parameter p("p", Tensor::from_rows({{0.4f, -0.3f}, {0.2f, 0.9f}}));
  const Tensor target(2, 2, 0.1f);
  expect_gradients_match({&p}, [&](Tape& tape) {
    const ValueId a = tape.param(p);
    const ValueId b = tape.tanh(tape.param(p));
    return tape.mse(tape.mul(a, b), target);
  });
}

TEST(TapeForward, IndexOutOfRangeThrows) {
  Tape tape;
  const ValueId a = tape.constant(Tensor(3, 2));
  EXPECT_THROW(tape.gather_rows(a, {0, 3}), std::runtime_error);
  EXPECT_THROW(tape.gather_rows(a, {-1}), std::runtime_error);
  const ValueId sums = tape.constant(Tensor(3, 2));
  EXPECT_THROW(tape.segment_sum(sums, {0, 1, 5}, a), std::runtime_error);
  EXPECT_THROW(tape.segment_sum(sums, {0, 1}, a), std::runtime_error);  // size
  const ValueId rows = tape.constant(Tensor(1, 2));
  EXPECT_THROW(tape.scatter_rows(a, {4}, rows), std::runtime_error);
}

TEST(TapeForward, MatmulMismatchThrows) {
  Tape tape;
  const ValueId a = tape.constant(Tensor(2, 3));
  const ValueId b = tape.constant(Tensor(2, 3));
  EXPECT_THROW(tape.matmul(a, b), std::runtime_error);
  const ValueId bias = tape.constant(Tensor(1, 4));
  EXPECT_THROW(tape.add_bias(a, bias), std::runtime_error);
}

TEST(TapeBackward, SecondBackwardOnSameTapeThrows) {
  // backward() consumes the tape; accumulating into parameters across
  // steps takes one tape per step (GradAccumulatesAcrossBackwards).
  Parameter p("p", Tensor::scalar(3.0f));
  Tape tape;
  const ValueId v = tape.param(p);
  const ValueId loss = tape.reduce_mean(tape.mul(v, v));
  p.zero_grad();
  tape.backward(loss);
  const float g1 = p.grad.at(0, 0);
  EXPECT_THROW(tape.backward(loss), std::runtime_error);
  EXPECT_FLOAT_EQ(p.grad.at(0, 0), g1);
}

TEST(TapeBackward, OnlyTheRootIsReadableAfterBackward) {
  // Every node but the root is freed once the reverse sweep has passed it,
  // including nodes recorded after the root.
  Parameter p("p", Tensor::from_rows({{1.0f, -2.0f}}));
  Tape tape;
  const ValueId x = tape.param(p);
  const ValueId y = tape.tanh(tape.mul(x, x));
  const ValueId loss = tape.reduce_mean(y);
  const ValueId after = tape.scale(loss, 2.0f);
  const float want = tape.value(loss).at(0, 0);
  tape.backward(loss);
  EXPECT_FLOAT_EQ(tape.value(loss).at(0, 0), want);
  for (const ValueId id : {x, y, after}) {
    EXPECT_THROW(tape.value(id), std::runtime_error) << "node " << id;
  }
}

// Each recorded op saves exactly the values its kSaved row names, so a
// release() between forward and backward frees everything else. Releasing
// every intermediate must leave the gradients bitwise unchanged. There is
// one graph per op whose row saves anything, and each releases every value
// that row names, so a row missing a saved value makes backward() throw
// ("did not save") instead of reading a freed buffer.
TEST(TapeBackward, ReleasedIntermediatesBackpropagateBitwise) {
  Rng rng(71);
  GruCell cell(3, 4, rng, "gru");
  Parameter pa("a", Tensor::from_rows({{0.3f, -1.2f, 0.8f},
                                       {1.5f, 0.1f, -0.4f}}));
  Parameter pb("b", Tensor::from_rows({{0.7f, -0.2f, 1.1f, 0.4f},
                                       {-0.9f, 0.6f, 0.2f, -1.3f},
                                       {0.5f, 1.4f, -0.7f, 0.3f}}));
  Parameter ph("h", Tensor::from_rows({{0.2f, -0.5f, 0.9f, -0.1f},
                                       {-0.6f, 0.4f, 0.1f, 0.8f}}));
  const Tensor target(2, 4, 0.25f);
  const std::vector<int> x_idx = {1, 0, 1};
  const std::vector<int> h_idx = {0, 1, 1};
  const Tensor gathered_target(3, 4, -0.1f);
  std::vector<Parameter*> params = cell.params();
  params.insert(params.end(), {&pa, &pb, &ph});

  // Each graph builds a loss; with `rel` set it releases every intermediate
  // right after its last forward reader.
  const auto drop = [](Tape& t, bool rel, std::initializer_list<ValueId> ids) {
    if (!rel) return;
    for (const ValueId id : ids) t.release(id);
  };
  using Build = std::function<ValueId(Tape&, bool)>;
  const std::vector<std::pair<const char*, Build>> graphs = {
      {"matmul+mse",
       [&](Tape& t, bool rel) {
         const ValueId a = t.scale(t.param(pa), 1.0f);
         const ValueId b = t.scale(t.param(pb), 1.0f);
         const ValueId y = t.matmul(a, b);
         drop(t, rel, {a, b});
         const ValueId loss = t.mse(y, target);
         drop(t, rel, {y});
         return loss;
       }},
      {"mul+mse",
       [&](Tape& t, bool rel) {
         const ValueId a = t.scale(t.param(ph), 1.5f);
         const ValueId b = t.scale(t.param(ph), -0.5f);
         const ValueId y = t.mul(a, b);
         drop(t, rel, {a, b});
         const ValueId loss = t.mse(y, target);
         drop(t, rel, {y});
         return loss;
       }},
      {"sigmoid+mse",
       [&](Tape& t, bool rel) {
         const ValueId a = t.scale(t.param(ph), 2.0f);
         const ValueId s = t.sigmoid(a);  // consumes a
         const ValueId y = t.scale(s, 1.0f);
         drop(t, rel, {s});
         const ValueId loss = t.mse(y, target);
         drop(t, rel, {y});
         return loss;
       }},
      {"tanh+mse",
       [&](Tape& t, bool rel) {
         const ValueId a = t.scale(t.param(ph), 2.0f);
         const ValueId th = t.tanh(a);  // consumes a
         const ValueId y = t.scale(th, 1.0f);
         drop(t, rel, {th});
         const ValueId loss = t.mse(y, target);
         drop(t, rel, {y});
         return loss;
       }},
      {"relu+mse",
       [&](Tape& t, bool rel) {
         const ValueId a = t.scale(t.param(ph), 2.0f);
         const ValueId r = t.relu(a);  // consumes a
         const ValueId y = t.scale(r, 1.0f);
         drop(t, rel, {r});
         const ValueId loss = t.mse(y, target);
         drop(t, rel, {y});
         return loss;
       }},
      {"gru_step",
       [&](Tape& t, bool rel) {
         const ValueId x = t.scale(t.param(pa), 1.0f);
         const ValueId h = t.scale(t.param(ph), 1.0f);
         const ValueId y = cell.step(t, x, h);
         drop(t, rel, {x, h});
         const ValueId loss = t.mse(y, target);
         drop(t, rel, {y});
         return loss;
       }},
      {"gru_step_gathered",
       [&](Tape& t, bool rel) {
         const ValueId x = t.scale(t.param(pa), 1.0f);
         const ValueId h = t.scale(t.param(ph), 1.0f);
         const ValueId y =
             t.gru_step_gathered(cell.project(t, x), x_idx, h, h_idx);
         drop(t, rel, {x, h});
         const ValueId loss = t.mse(y, gathered_target);
         drop(t, rel, {y});
         return loss;
       }},
  };
  for (const auto& [name, build] : graphs) {
    auto grads = [&](bool rel) {
      for (Parameter* p : params) p->zero_grad();
      Tape tape;
      tape.backward(build(tape, rel));
      std::vector<Tensor> out;
      for (Parameter* p : params) out.push_back(p->grad);
      return out;
    };
    const std::vector<Tensor> kept = grads(false);
    const std::vector<Tensor> released = grads(true);
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(std::memcmp(kept[i].data(), released[i].data(),
                            static_cast<std::size_t>(kept[i].size()) *
                                sizeof(float)),
                0)
          << name << ": " << params[i]->name;
    }
  }
}

TEST(TapeForward, ValueReferencesSurviveLaterOps) {
  // Nodes live in a deque: references from value() must stay valid while
  // hundreds of further ops are recorded.
  Tape tape;
  const ValueId a = tape.constant(Tensor::from_rows({{7.5f}}));
  const Tensor& ref = tape.value(a);
  for (int i = 0; i < 500; ++i) {
    tape.constant(Tensor(4, 4, static_cast<float>(i)));
  }
  EXPECT_FLOAT_EQ(ref.at(0, 0), 7.5f);
}

TEST(TapeBackward, ConstantsReceiveNoGradientWork) {
  // A graph of pure constants must not blow up in backward, and no node
  // below the root gets a gradient buffer: backward acquires exactly one
  // tensor, the root's 1×1 seed.
  Tape tape;
  const ValueId a = tape.constant(Tensor(3, 3, 1.0f));
  const ValueId loss = tape.reduce_mean(tape.mul(a, a));
  const ArenaStats before = arena_stats();
  tape.backward(loss);  // no throw
  const ArenaStats after = arena_stats();
  EXPECT_EQ((after.fresh_allocs + after.reuses) -
                (before.fresh_allocs + before.reuses),
            1u);
}

}  // namespace
}  // namespace rn::ag
