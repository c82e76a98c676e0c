// Kernel-backend contract tests: the avx2 table must be bitwise identical
// to scalar on every op — including remainder tails at odd shapes, signed
// zeros, the zero-entry skip that avoids Inf*0 NaNs, and the gate
// nonlinearities on a sweep of float bit patterns — the gate recipe must
// meet its accuracy bounds, and the dispatch seams must fail safe.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ag/kernels.h"
#include "ag/tensor.h"
#include "execution_scope.h"
#include "util/rng.h"

namespace kern = rn::ag::kern;

namespace {

// Deterministic fill with exact zeros (hits the skip path) and negative
// zeros (memcmp catches any sign-of-zero divergence) sprinkled in.
std::vector<float> random_data(std::size_t n, std::uint64_t seed) {
  rn::Rng rng(static_cast<unsigned>(seed));
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int roll = rng.uniform_int(0, 9);
    if (roll == 0) {
      v[i] = 0.0f;
    } else if (roll == 1) {
      v[i] = -0.0f;
    } else {
      v[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Shapes chosen to stress every vector-width boundary: single element,
// sub-vector, one-past-vector, 8/32-multiples, and ragged tails — plus k
// past one and two kTileK (240) panels, where tn carries its running sums
// through C between panels.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},    {3, 5, 7},     {17, 31, 33},
                         {33, 65, 9},  {8, 16, 32},   {64, 64, 64},
                         {5, 240, 41}, {37, 517, 45}, {2, 481, 32}};

class KernelsAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kern::backend_available(kern::Backend::kAvx2)) {
      GTEST_SKIP() << "avx2 backend not available on this build/CPU";
    }
  }
};

TEST_F(KernelsAvx2Test, MatmulFamilyBitwiseEqualAtOddShapes) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  for (const Shape& s : kShapes) {
    const auto a = random_data(static_cast<std::size_t>(s.m) * s.k, 1);
    const auto b = random_data(static_cast<std::size_t>(s.k) * s.n, 2);
    const auto at = random_data(static_cast<std::size_t>(s.k) * s.m, 3);
    const auto bt = random_data(static_cast<std::size_t>(s.n) * s.k, 4);
    // C starts non-zero: the block kernels accumulate, so a stale += would
    // only show up against a dirty destination.
    const auto c0 = random_data(static_cast<std::size_t>(s.m) * s.n, 5);

    auto cs = c0, cv = c0;
    scalar.matmul_block(a.data(), b.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2.matmul_block(a.data(), b.data(), cv.data(), 0, s.m, s.k, s.n);
    EXPECT_TRUE(bitwise_equal(cs, cv))
        << "matmul " << s.m << "x" << s.k << "x" << s.n;

    cs = c0;
    cv = c0;
    scalar.matmul_tn_block(at.data(), b.data(), cs.data(), 0, s.m, s.m, s.k,
                           s.n);
    avx2.matmul_tn_block(at.data(), b.data(), cv.data(), 0, s.m, s.m, s.k,
                         s.n);
    EXPECT_TRUE(bitwise_equal(cs, cv))
        << "matmul_tn " << s.m << "x" << s.k << "x" << s.n;

    cs = c0;
    cv = c0;
    scalar.matmul_nt_block(a.data(), bt.data(), cs.data(), 0, s.m, s.k, s.n);
    avx2.matmul_nt_block(a.data(), bt.data(), cv.data(), 0, s.m, s.k, s.n);
    EXPECT_TRUE(bitwise_equal(cs, cv))
        << "matmul_nt " << s.m << "x" << s.k << "x" << s.n;

    // Partial row ranges (the parallel chunking never hands a kernel the
    // whole range when threaded). An odd-length range leaves tn an unpaired
    // last row; nt packs B again for every call.
    if (s.m > 2) {
      const int r0 = 1, r1 = s.m - 1;
      cs = c0;
      cv = c0;
      scalar.matmul_block(a.data(), b.data(), cs.data(), r0, r1, s.k, s.n);
      avx2.matmul_block(a.data(), b.data(), cv.data(), r0, r1, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(cs, cv))
          << "matmul partial range " << s.m << "x" << s.k << "x" << s.n;

      cs = c0;
      cv = c0;
      scalar.matmul_tn_block(at.data(), b.data(), cs.data(), r0, r1, s.m,
                             s.k, s.n);
      avx2.matmul_tn_block(at.data(), b.data(), cv.data(), r0, r1, s.m, s.k,
                           s.n);
      EXPECT_TRUE(bitwise_equal(cs, cv))
          << "matmul_tn partial range " << s.m << "x" << s.k << "x" << s.n;

      cs = c0;
      cv = c0;
      scalar.matmul_nt_block(a.data(), bt.data(), cs.data(), r0, r1, s.k,
                             s.n);
      avx2.matmul_nt_block(a.data(), bt.data(), cv.data(), r0, r1, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(cs, cv))
          << "matmul_nt partial range " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST_F(KernelsAvx2Test, ZeroSkipSuppressesInfTimesZeroExactlyLikeScalar) {
  // a has an exact 0.0 (and a -0.0) where b's row is Inf: the scalar loop
  // skips those products entirely, so no NaN may appear — and the avx2
  // backend must make the same call.
  const int m = 4, k = 3, n = 17;
  auto a = random_data(static_cast<std::size_t>(m) * k, 6);
  auto b = random_data(static_cast<std::size_t>(k) * n, 7);
  for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k + 1] = (i % 2) ? 0.0f : -0.0f;
  for (int j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(1) * n + j] =
        std::numeric_limits<float>::infinity();
  }
  std::vector<float> cs(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> cv = cs;
  kern::ops(kern::Backend::kScalar)
      .matmul_block(a.data(), b.data(), cs.data(), 0, m, k, n);
  kern::ops(kern::Backend::kAvx2)
      .matmul_block(a.data(), b.data(), cv.data(), 0, m, k, n);
  for (const float v : cs) EXPECT_FALSE(std::isnan(v));
  EXPECT_TRUE(bitwise_equal(cs, cv));

  // tn runs output rows in pairs that share each B-row load, so the skip
  // must stay per row: at the Inf row of B, put a signed zero in only one
  // row of each pair — the first row of one pair, the second of the next
  // (the other row gets a non-zero, whose products go to ±Inf) — and in
  // the unpaired last row of an odd m.
  const int tm = 5, tk = 3, tn = 41;
  auto at = random_data(static_cast<std::size_t>(tk) * tm, 8);
  auto tb = random_data(static_cast<std::size_t>(tk) * tn, 9);
  const float inf_row_a[tm] = {0.0f, 1.5f, -2.0f, -0.0f, 0.0f};
  for (int i = 0; i < tm; ++i) {
    at[static_cast<std::size_t>(1) * tm + i] = inf_row_a[i];
  }
  for (int j = 0; j < tn; ++j) {
    tb[static_cast<std::size_t>(1) * tn + j] =
        std::numeric_limits<float>::infinity();
  }
  std::vector<float> ts(static_cast<std::size_t>(tm) * tn, 0.0f);
  std::vector<float> tv = ts;
  kern::ops(kern::Backend::kScalar)
      .matmul_tn_block(at.data(), tb.data(), ts.data(), 0, tm, tm, tk, tn);
  kern::ops(kern::Backend::kAvx2)
      .matmul_tn_block(at.data(), tb.data(), tv.data(), 0, tm, tm, tk, tn);
  for (const float v : ts) EXPECT_FALSE(std::isnan(v));
  EXPECT_TRUE(bitwise_equal(ts, tv));
}

TEST_F(KernelsAvx2Test, RowIndexOpsBitwiseEqualWithDuplicateIndices) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  for (const int cols : {1, 7, 8, 17, 64}) {
    const int src_rows = 13, nrows = 29;
    const auto src =
        random_data(static_cast<std::size_t>(nrows) * cols, 8);
    const auto base =
        random_data(static_cast<std::size_t>(src_rows) * cols, 9);
    // Duplicates on purpose: indexed_row_add must accumulate repeats in the
    // same ascending order on both backends.
    std::vector<int> idx(nrows);
    rn::Rng rng(10);
    for (int& i : idx) i = rng.uniform_int(0, src_rows - 1);

    auto ds = base, dv = base;
    scalar.indexed_row_add(ds.data(), idx.data(), nrows, cols, src.data());
    avx2.indexed_row_add(dv.data(), idx.data(), nrows, cols, src.data());
    EXPECT_TRUE(bitwise_equal(ds, dv)) << "indexed_row_add cols=" << cols;

    std::vector<float> gs(static_cast<std::size_t>(nrows) * cols, 0.0f);
    std::vector<float> gv = gs;
    scalar.gather_rows(base.data(), idx.data(), nrows, cols, gs.data());
    avx2.gather_rows(base.data(), idx.data(), nrows, cols, gv.data());
    EXPECT_TRUE(bitwise_equal(gs, gv)) << "gather_rows cols=" << cols;

    auto hs = src, hv = src;
    scalar.gathered_row_add(hs.data(), idx.data(), nrows, cols, base.data());
    avx2.gathered_row_add(hv.data(), idx.data(), nrows, cols, base.data());
    EXPECT_TRUE(bitwise_equal(hs, hv)) << "gathered_row_add cols=" << cols;

    // scatter_rows needs unique targets by contract.
    std::vector<int> uniq(src_rows);
    for (int i = 0; i < src_rows; ++i) uniq[static_cast<std::size_t>(i)] = src_rows - 1 - i;
    auto ss = random_data(static_cast<std::size_t>(src_rows) * cols, 11);
    auto sv = ss;
    scalar.scatter_rows(ss.data(), uniq.data(), src_rows, cols, base.data());
    avx2.scatter_rows(sv.data(), uniq.data(), src_rows, cols, base.data());
    EXPECT_TRUE(bitwise_equal(ss, sv)) << "scatter_rows cols=" << cols;
  }
}

TEST_F(KernelsAvx2Test, ElementwiseOpsBitwiseEqualAtRaggedSizes) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  for (const int cols : {1, 5, 8, 31}) {
    const int rows = 7;
    const std::size_t n = static_cast<std::size_t>(rows) * cols;
    const auto x = random_data(n, 12);
    const auto y0 = random_data(n, 13);
    const auto factors = random_data(static_cast<std::size_t>(rows), 14);
    const auto bias = random_data(static_cast<std::size_t>(cols), 15);

    auto as_ = y0, av_ = y0;
    scalar.axpy(as_.data(), x.data(), -1.375f, n);
    avx2.axpy(av_.data(), x.data(), -1.375f, n);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "axpy n=" << n;

    as_ = y0;
    av_ = y0;
    scalar.mul_inplace(as_.data(), x.data(), n);
    avx2.mul_inplace(av_.data(), x.data(), n);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "mul_inplace n=" << n;

    as_ = y0;
    av_ = y0;
    const auto x2 = random_data(n, 16);
    scalar.madd(as_.data(), x.data(), x2.data(), n);
    avx2.madd(av_.data(), x.data(), x2.data(), n);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "madd n=" << n;

    as_ = y0;
    av_ = y0;
    scalar.scale_rows(as_.data(), factors.data(), rows, cols);
    avx2.scale_rows(av_.data(), factors.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "scale_rows cols=" << cols;

    as_ = y0;
    av_ = y0;
    scalar.add_scaled_rows(as_.data(), x.data(), factors.data(), rows, cols);
    avx2.add_scaled_rows(av_.data(), x.data(), factors.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "add_scaled_rows cols=" << cols;

    as_ = y0;
    av_ = y0;
    scalar.add_bias_rows(as_.data(), bias.data(), rows, cols);
    avx2.add_bias_rows(av_.data(), bias.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(as_, av_)) << "add_bias_rows cols=" << cols;

    std::vector<float> col_s(static_cast<std::size_t>(cols), 0.5f);
    std::vector<float> col_v = col_s;
    scalar.colsum_add(col_s.data(), x.data(), rows, cols);
    avx2.colsum_add(col_v.data(), x.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(col_s, col_v)) << "colsum_add cols=" << cols;

    const auto z = random_data(n, 17);
    const auto hc = random_data(n, 18);
    std::vector<float> out_s(n, 0.0f), out_v(n, 0.0f);
    scalar.gru_blend(z.data(), y0.data(), hc.data(), out_s.data(), n);
    avx2.gru_blend(z.data(), y0.data(), hc.data(), out_v.data(), n);
    EXPECT_TRUE(bitwise_equal(out_s, out_v)) << "gru_blend n=" << n;
  }
}

// --- Gate nonlinearities ------------------------------------------------------

// Every 4093rd float bit pattern (4093 is prime, so the sweep walks every
// exponent and mantissa region, NaN payloads included) plus the values the
// recipe special-cases: signed zeros, infinities, NaNs of both signs,
// subnormals, the tanh branch point and the exp clamp edges.
std::vector<float> gate_inputs() {
  std::vector<float> v;
  for (std::uint64_t bits = 0; bits < (1ULL << 32); bits += 4093) {
    v.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const float x :
       {0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(), denorm, -denorm,
        std::numeric_limits<float>::min() / 2.0f, 0.625f, -0.625f,
        std::nextafter(0.625f, 0.0f), 88.72f, -88.72f, 89.0f, -104.0f,
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max()}) {
    v.push_back(x);
  }
  return v;
}

// Applies `fn` to `in` in consecutive chunks of 1, 2, …, 17 elements, so
// every vector remainder length is exercised.
std::vector<float> apply_ragged(void (*fn)(float*, std::size_t),
                                const std::vector<float>& in) {
  std::vector<float> out = in;
  std::size_t i = 0;
  for (std::size_t len = 1; i < out.size(); len = len % 17 + 1) {
    const std::size_t n = std::min(len, out.size() - i);
    fn(out.data() + i, n);
    i += n;
  }
  return out;
}

// Distance in representable floats (adjacent floats are 1 apart; +0 and -0
// coincide).
std::int64_t ulp_distance(float a, float b) {
  auto ordered = [](float f) -> std::int64_t {
    const auto bits = std::bit_cast<std::int32_t>(f);
    return bits < 0 ? -static_cast<std::int64_t>(bits & 0x7fffffff) : bits;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

std::vector<kern::Backend> bitwise_backends() {
  std::vector<kern::Backend> out{kern::Backend::kScalar};
  if (kern::backend_available(kern::Backend::kAvx2)) {
    out.push_back(kern::Backend::kAvx2);
  }
  return out;
}

TEST_F(KernelsAvx2Test, GateNonlinearitiesBitwiseEqualOnBitPatternSweep) {
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  const kern::Ops& avx2 = kern::ops(kern::Backend::kAvx2);
  const std::vector<float> in = gate_inputs();
  EXPECT_TRUE(bitwise_equal(apply_ragged(scalar.sigmoid_inplace, in),
                            apply_ragged(avx2.sigmoid_inplace, in)));
  EXPECT_TRUE(bitwise_equal(apply_ragged(scalar.tanh_inplace, in),
                            apply_ragged(avx2.tanh_inplace, in)));
}

TEST(KernelsGateTest, AccuracyAgainstDoubleReference) {
  const std::vector<float> in = gate_inputs();
  for (const kern::Backend backend : bitwise_backends()) {
    const kern::Ops& ops = kern::ops(backend);
    const std::vector<float> sig = apply_ragged(ops.sigmoid_inplace, in);
    const std::vector<float> th = apply_ragged(ops.tanh_inplace, in);
    std::int64_t tanh_ulp = 0, sig_ulp = 0;
    double sig_abs = 0.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double x = in[i];
      if (std::isnan(x)) continue;
      tanh_ulp = std::max(
          tanh_ulp, ulp_distance(th[i], static_cast<float>(std::tanh(x))));
      const double sig_ref = 1.0 / (1.0 + std::exp(-x));
      if (x >= -80.0) {
        sig_ulp = std::max(
            sig_ulp, ulp_distance(sig[i], static_cast<float>(sig_ref)));
      }
      sig_abs = std::max(sig_abs, std::abs(sig[i] - sig_ref));
    }
    const char* name = kern::backend_name(backend);
    EXPECT_LE(tanh_ulp, 2) << name;
    EXPECT_LE(sig_ulp, 2) << name;
    EXPECT_LE(sig_abs, 1e-7) << name;
  }
}

TEST(KernelsGateTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const kern::Backend backend : bitwise_backends()) {
    const kern::Ops& ops = kern::ops(backend);
    const char* name = kern::backend_name(backend);
    std::vector<float> sig = {nan, -nan, inf, -inf, 0.0f, -0.0f};
    std::vector<float> th = sig;
    ops.sigmoid_inplace(sig.data(), sig.size());
    ops.tanh_inplace(th.data(), th.size());
    EXPECT_TRUE(std::isnan(sig[0]) && std::isnan(sig[1])) << name;
    EXPECT_EQ(sig[2], 1.0f) << name;
    EXPECT_EQ(sig[3], 0.0f) << name;
    EXPECT_EQ(sig[4], 0.5f) << name;
    EXPECT_EQ(sig[5], 0.5f) << name;
    EXPECT_TRUE(std::isnan(th[0]) && std::isnan(th[1])) << name;
    EXPECT_EQ(th[2], 1.0f) << name;
    EXPECT_EQ(th[3], -1.0f) << name;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(th[4]), 0x00000000u) << name;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(th[5]), 0x80000000u) << name;
    // Odd symmetry holds bit for bit: the recipe works on |x|.
    std::vector<float> pos = {0.1f, 0.625f, 3.0f, 1e-30f};
    std::vector<float> neg = {-0.1f, -0.625f, -3.0f, -1e-30f};
    ops.tanh_inplace(pos.data(), pos.size());
    ops.tanh_inplace(neg.data(), neg.size());
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_EQ(neg[i], -pos[i]) << name;
    }
  }
}

// Output row i of an nn matmul is computed from A's row i alone, so
// multiplying a gather of X equals gathering rows of the full product, bit
// for bit. The GRU path update relies on this to project link states once
// and gather the product rows per hop. Covered: exact and negative zeros in
// X (the zero skip), duplicate indices, k past one kTileK panel (the scalar
// panel split), n off the 8-wide vector width (remainder columns), and 4
// threads at threshold 0 (row chunking) on every available backend.
TEST(KernelsMatmulTest, MatmulRowsIndependentOfOtherRows) {
  const int m = 70;
  std::vector<int> idx;
  for (int i = 0; i < 110; ++i) idx.push_back((i * 13) % m);
  idx[2] = idx[1];
  auto gather = [&](const rn::ag::Tensor& src) {
    rn::ag::Tensor out(static_cast<int>(idx.size()), src.cols());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      std::memcpy(out.row(static_cast<int>(i)), src.row(idx[i]),
                  static_cast<std::size_t>(src.cols()) * sizeof(float));
    }
    return out;
  };
  auto tensor = [](int rows, int cols, std::uint64_t seed) {
    const auto data = random_data(static_cast<std::size_t>(rows) * cols, seed);
    rn::ag::Tensor t(rows, cols);
    std::memcpy(t.data(), data.data(), data.size() * sizeof(float));
    return t;
  };
  for (const kern::Backend backend :
       {kern::Backend::kScalar, kern::Backend::kAvx2}) {
    if (!kern::backend_available(backend)) continue;
    for (const int threads : {1, 4}) {
      rn::testing::ExecutionScope scope(backend, threads);
      for (const auto& [k, n] : {std::pair{6, 13}, std::pair{257, 45},
                                std::pair{481, 8}}) {
        rn::ag::Tensor x = tensor(m, k, 11);
        for (int p = 0; p < k; ++p) x.at(idx[0], p) = 0.0f;  // all-zero row
        const rn::ag::Tensor w = tensor(k, n, 12);
        const rn::ag::Tensor rows_of_product = gather(rn::ag::matmul(x, w));
        const rn::ag::Tensor product_of_rows = rn::ag::matmul(gather(x), w);
        EXPECT_EQ(std::memcmp(rows_of_product.data(), product_of_rows.data(),
                              static_cast<std::size_t>(
                                  rows_of_product.size()) *
                                  sizeof(float)),
                  0)
            << kern::backend_name(backend) << " x" << threads << " k=" << k
            << " n=" << n;
      }
    }
  }
}

TEST(KernelsDispatchTest, SetBackendSwitchesActiveTableAndReturnsPrevious) {
  const kern::Backend initial = kern::active_backend();
  const kern::Backend prev = kern::set_kernel_backend(kern::Backend::kScalar);
  EXPECT_EQ(prev, initial);
  EXPECT_EQ(kern::active_backend(), kern::Backend::kScalar);
  EXPECT_STREQ(kern::active().name, "scalar");
  kern::set_kernel_backend(initial);
  EXPECT_EQ(kern::active_backend(), initial);
}

TEST(KernelsDispatchTest, ScalarBackendIsAlwaysAvailable) {
  EXPECT_TRUE(kern::backend_available(kern::Backend::kScalar));
  EXPECT_STREQ(kern::backend_name(kern::Backend::kScalar), "scalar");
  EXPECT_STREQ(kern::backend_name(kern::Backend::kAvx2), "avx2");
}

}  // namespace
