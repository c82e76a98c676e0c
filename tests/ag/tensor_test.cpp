#include "ag/tensor.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace rn::ag {
namespace {

// Textbook triple loop: the reference the blocked kernels must match.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Tensor random_tensor(int rows, int cols, Rng& rng) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(t.at(r, c), 0.0f);
  }
}

TEST(Tensor, FillConstructorAndScalar) {
  const Tensor t(2, 2, 3.5f);
  EXPECT_EQ(t.at(1, 1), 3.5f);
  const Tensor s = Tensor::scalar(-2.0f);
  EXPECT_EQ(s.rows(), 1);
  EXPECT_EQ(s.cols(), 1);
  EXPECT_EQ(s.at(0, 0), -2.0f);
}

TEST(Tensor, FromRowsLiteral) {
  const Tensor t = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, FromRowsRaggedThrows) {
  EXPECT_THROW(Tensor::from_rows({{1.0f, 2.0f}, {3.0f}}), std::runtime_error);
}

TEST(Tensor, ColumnVector) {
  const Tensor t = Tensor::column({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 1);
  EXPECT_EQ(t.at(2, 0), 3.0f);
}

TEST(Tensor, AtOutOfRangeThrows) {
  Tensor t(2, 2);
  EXPECT_THROW(t.at(2, 0), std::runtime_error);
  EXPECT_THROW(t.at(0, -1), std::runtime_error);
}

TEST(Tensor, AddScaledAndScale) {
  Tensor a = Tensor::from_rows({{1.0f, 2.0f}});
  const Tensor b = Tensor::from_rows({{10.0f, 20.0f}});
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(a.at(0, 1), 12.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 12.0f);
}

TEST(Tensor, AddScaledShapeMismatchThrows) {
  Tensor a(2, 2);
  const Tensor b(2, 3);
  EXPECT_THROW(a.add_scaled(b, 1.0f), std::runtime_error);
}

TEST(Tensor, SquaredNorm) {
  const Tensor t = Tensor::from_rows({{3.0f, 4.0f}});
  EXPECT_DOUBLE_EQ(t.squared_norm(), 25.0);
}

TEST(Matmul, KnownProduct) {
  const Tensor a = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  const Tensor b = Tensor::from_rows({{5.0f, 6.0f}, {7.0f, 8.0f}});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, DimensionMismatchThrows) {
  const Tensor a(2, 3);
  const Tensor b(2, 3);
  EXPECT_THROW(matmul(a, b), std::runtime_error);
}

TEST(Matmul, TransposedVariantsAgree) {
  const Tensor a = Tensor::from_rows({{1.0f, -2.0f, 0.5f},
                                      {2.0f, 0.0f, 1.0f}});
  const Tensor b = Tensor::from_rows({{3.0f, 1.0f}, {0.0f, 2.0f}});
  // matmul_tn(a, b) == aᵀ b : (3×2)·(2×2) → 3×2
  const Tensor at_b = matmul_tn(a, b);
  // Build aᵀ explicitly and compare.
  Tensor at(3, 2);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) at.at(c, r) = a.at(r, c);
  }
  const Tensor expect = matmul(at, b);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(at_b.at(r, c), expect.at(r, c));
    }
  }
  // matmul_nt(b, a) == b aᵀ : (2×2)·(2×3) → 2×3
  const Tensor b_at = matmul_nt(b, at);
  const Tensor expect2 = matmul(b, a);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(b_at.at(r, c), expect2.at(r, c));
    }
  }
}

// The blocked kernels tile over rows and the inner dimension; exercise
// shapes that are not multiples of any tile size against the naive loop.
TEST(Matmul, BlockedKernelsMatchNaiveOnOddShapes) {
  Rng rng(3);
  const int shapes[][3] = {{1, 1, 1},   {5, 3, 2},    {33, 31, 7},
                           {65, 240, 3}, {70, 241, 37}, {129, 65, 33}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(k, n, rng);
    const Tensor expect = naive_matmul(a, b);
    const Tensor c = matmul(a, b);
    ASSERT_TRUE(c.same_shape(expect));
    for (int i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[static_cast<std::size_t>(i)],
                  expect[static_cast<std::size_t>(i)], 1e-4f)
          << m << "x" << k << "x" << n << " element " << i;
    }

    // aᵀ shaped (k, m): matmul_tn(aT, b) must equal a b as well.
    Tensor at(k, m);
    for (int r = 0; r < m; ++r) {
      for (int col = 0; col < k; ++col) at.at(col, r) = a.at(r, col);
    }
    const Tensor c_tn = matmul_tn(at, b);
    for (int i = 0; i < c_tn.size(); ++i) {
      ASSERT_NEAR(c_tn[static_cast<std::size_t>(i)],
                  expect[static_cast<std::size_t>(i)], 1e-4f);
    }

    // bᵀ shaped (n, k): matmul_nt(a, bT) must equal a b too.
    Tensor bt(n, k);
    for (int r = 0; r < k; ++r) {
      for (int col = 0; col < n; ++col) bt.at(col, r) = b.at(r, col);
    }
    const Tensor c_nt = matmul_nt(a, bt);
    for (int i = 0; i < c_nt.size(); ++i) {
      ASSERT_NEAR(c_nt[static_cast<std::size_t>(i)],
                  expect[static_cast<std::size_t>(i)], 1e-4f);
    }
  }
}

TEST(Matmul, ParallelThresholdRoundTrips) {
  const long long saved = matmul_parallel_threshold();
  set_matmul_parallel_threshold(12345);
  EXPECT_EQ(matmul_parallel_threshold(), 12345);
  set_matmul_parallel_threshold(saved);
}

TEST(Matmul, IdentityIsNeutral) {
  const Tensor a = Tensor::from_rows({{1.5f, -2.0f}, {0.0f, 4.0f}});
  Tensor id(2, 2);
  id.at(0, 0) = 1.0f;
  id.at(1, 1) = 1.0f;
  const Tensor c = matmul(a, id);
  for (int r = 0; r < 2; ++r) {
    for (int col = 0; col < 2; ++col) {
      EXPECT_FLOAT_EQ(c.at(r, col), a.at(r, col));
    }
  }
}

}  // namespace
}  // namespace rn::ag
