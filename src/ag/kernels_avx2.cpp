// AVX2 / AVX2+FMA backends. This TU is the only one compiled with
// -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse the
// separate mul/add sequences behind our back); kernels.cpp only calls
// avx2_ops()/avx2fma_ops() after a runtime CPU check.
//
// Bitwise contract (avx2 table): every kernel performs the exact same
// per-element arithmetic sequence as the scalar reference — same ascending
// accumulation order, separate _mm256_mul_ps + _mm256_add_ps (never fused),
// and the same `av == 0.0f` skip in the matmul row loops. Vectorizing over
// the output column axis is safe because each output element's operation
// chain is untouched; only independent elements are packed into one vector.
// Remainder columns run the scalar loop verbatim.
//
// The avx2fma table swaps the three matmul kernels for fused-multiply-add
// variants (matmul_nt additionally runs an 8-lane partial-sum reduction).
// Those reassociate/fuse rounding and so diverge from scalar by a few ULPs —
// which is why that table is opt-in only (RN_KERNELS=avx2fma).
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "ag/kernels.h"

namespace rn::ag::kern {

namespace {

// --- avx2: bitwise-identical matmuls --------------------------------------
//
// Both row-major matmuls are register-blocked: a tile of up to 32 output
// columns accumulates in four ymm registers across the entire ascending-p
// loop, then stores once. Per output element the arithmetic sequence is
// unchanged from scalar (one mul, one add per non-zero a[i][p], ascending
// p) — holding the accumulator in a register instead of round-tripping
// through C memory does not change any rounding, it just removes the
// store-to-load chain that capped the memory-accumulating version at
// scalar speed.

// One (i, j-tile) accumulation over the full p range. Scalar reads
// a[i][p] at stride `astride` (1 for nn where a is row-major, m for tn
// where a is transposed).
template <int Tiles>
inline void accum_col_tile(const float* acol, std::size_t astride,
                           const float* b, float* crow, int j, int k, int n) {
  __m256 acc[Tiles];
  for (int t = 0; t < Tiles; ++t) {
    acc[t] = _mm256_loadu_ps(crow + j + 8 * t);
  }
  for (int p = 0; p < k; ++p) {
    const float av = acol[static_cast<std::size_t>(p) * astride];
    if (av == 0.0f) continue;
    const float* brow = b + static_cast<std::size_t>(p) * n + j;
    const __m256 av8 = _mm256_set1_ps(av);
    for (int t = 0; t < Tiles; ++t) {
      acc[t] =
          _mm256_add_ps(acc[t], _mm256_mul_ps(av8, _mm256_loadu_ps(brow + 8 * t)));
    }
  }
  for (int t = 0; t < Tiles; ++t) {
    _mm256_storeu_ps(crow + j + 8 * t, acc[t]);
  }
}

// Shared by nn and tn: walk one output row, tiling columns 32/8/scalar.
inline void matmul_row_avx2(const float* acol, std::size_t astride,
                            const float* b, float* crow, int k, int n) {
  int j = 0;
  for (; j + 32 <= n; j += 32) accum_col_tile<4>(acol, astride, b, crow, j, k, n);
  for (; j + 8 <= n; j += 8) accum_col_tile<1>(acol, astride, b, crow, j, k, n);
  for (; j < n; ++j) {
    float acc = crow[j];
    for (int p = 0; p < k; ++p) {
      const float av = acol[static_cast<std::size_t>(p) * astride];
      if (av == 0.0f) continue;
      acc += av * b[static_cast<std::size_t>(p) * n + j];
    }
    crow[j] = acc;
  }
}

void avx2_matmul_block(const float* a, const float* b, float* c, int r0,
                       int r1, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    matmul_row_avx2(a + static_cast<std::size_t>(i) * k, 1, b,
                    c + static_cast<std::size_t>(i) * n, k, n);
  }
}

void avx2_matmul_tn_block(const float* a, const float* b, float* c, int r0,
                          int r1, int m, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    matmul_row_avx2(a + i, static_cast<std::size_t>(m), b,
                    c + static_cast<std::size_t>(i) * n, k, n);
  }
}

// Lane-per-output-column: 8 adjacent columns of C accumulate in parallel,
// each lane running its own ascending-p dot product in scalar order (one
// mul, one add per p). The B elements for the 8 columns at a given p sit a
// row-stride (k floats) apart, fetched with a strided gather.
void avx2_matmul_nt_block(const float* a, const float* b, float* c, int r0,
                          int r1, int k, int n) {
  const int n8 = n & ~7;
  const __m256i stride =
      _mm256_mullo_epi32(_mm256_set1_epi32(k),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j < n8; j += 8) {
      const float* bbase = b + static_cast<std::size_t>(j) * k;
      __m256 acc = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const __m256 bv =
            _mm256_i32gather_ps(bbase + p, stride, sizeof(float));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(arow[p]), bv));
      }
      _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), acc));
    }
    for (; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// --- avx2fma: fused, reassociated matmuls (divergent, opt-in) -------------

// Register-blocked like the avx2 pair, but with fused multiply-adds.
template <int Tiles>
inline void fma_accum_col_tile(const float* acol, std::size_t astride,
                               const float* b, float* crow, int j, int k,
                               int n) {
  __m256 acc[Tiles];
  for (int t = 0; t < Tiles; ++t) {
    acc[t] = _mm256_loadu_ps(crow + j + 8 * t);
  }
  for (int p = 0; p < k; ++p) {
    const float av = acol[static_cast<std::size_t>(p) * astride];
    if (av == 0.0f) continue;
    const float* brow = b + static_cast<std::size_t>(p) * n + j;
    const __m256 av8 = _mm256_set1_ps(av);
    for (int t = 0; t < Tiles; ++t) {
      acc[t] = _mm256_fmadd_ps(av8, _mm256_loadu_ps(brow + 8 * t), acc[t]);
    }
  }
  for (int t = 0; t < Tiles; ++t) {
    _mm256_storeu_ps(crow + j + 8 * t, acc[t]);
  }
}

inline void fma_matmul_row(const float* acol, std::size_t astride,
                           const float* b, float* crow, int k, int n) {
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    fma_accum_col_tile<4>(acol, astride, b, crow, j, k, n);
  }
  for (; j + 8 <= n; j += 8) {
    fma_accum_col_tile<1>(acol, astride, b, crow, j, k, n);
  }
  for (; j < n; ++j) {
    float acc = crow[j];
    for (int p = 0; p < k; ++p) {
      const float av = acol[static_cast<std::size_t>(p) * astride];
      if (av == 0.0f) continue;
      acc += av * b[static_cast<std::size_t>(p) * n + j];
    }
    crow[j] = acc;
  }
}

void fma_matmul_block(const float* a, const float* b, float* c, int r0,
                      int r1, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    fma_matmul_row(a + static_cast<std::size_t>(i) * k, 1, b,
                   c + static_cast<std::size_t>(i) * n, k, n);
  }
}

void fma_matmul_tn_block(const float* a, const float* b, float* c, int r0,
                         int r1, int m, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    fma_matmul_row(a + i, static_cast<std::size_t>(m), b,
                   c + static_cast<std::size_t>(i) * n, k, n);
  }
}

float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

// B rows are contiguous over p here, so each c[i][j] runs an 8-lane
// partial-sum dot product (fmadd) and reduces at the end — the fastest
// shape for this kernel, and the clearest example of why avx2fma is
// bitwise-divergent.
void fma_matmul_nt_block(const float* a, const float* b, float* c, int r0,
                         int r1, int k, int n) {
  const int k8 = k & ~7;
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      __m256 acc8 = _mm256_setzero_ps();
      int p = 0;
      for (; p < k8; p += 8) {
        acc8 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                               _mm256_loadu_ps(brow + p), acc8);
      }
      float acc = hsum8(acc8);
      for (; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// --- Row-indexing / elementwise kernels (bitwise-safe, shared) ------------

void avx2_gather_rows(const float* src, const int* idx, int nrows, int cols,
                      float* dst) {
  for (int i = 0; i < nrows; ++i) {
    std::memcpy(dst + static_cast<std::size_t>(i) * cols,
                src + static_cast<std::size_t>(idx[i]) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void avx2_scatter_rows(float* dst, const int* idx, int nrows, int cols,
                       const float* src) {
  for (int i = 0; i < nrows; ++i) {
    std::memcpy(dst + static_cast<std::size_t>(idx[i]) * cols,
                src + static_cast<std::size_t>(i) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

// Row iteration stays sequential (ascending i) in both indexed adds so
// duplicate target rows accumulate in scalar order; only the independent
// columns inside one row are vectorized.
void avx2_indexed_row_add(float* dst, const int* idx, int nrows, int cols,
                          const float* src) {
  const int c8 = cols & ~7;
  for (int i = 0; i < nrows; ++i) {
    float* out = dst + static_cast<std::size_t>(idx[i]) * cols;
    const float* in = src + static_cast<std::size_t>(i) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                              _mm256_loadu_ps(in + c)));
    }
    for (; c < cols; ++c) out[c] += in[c];
  }
}

void avx2_gathered_row_add(float* dst, const int* idx, int nrows, int cols,
                           const float* src) {
  const int c8 = cols & ~7;
  for (int i = 0; i < nrows; ++i) {
    float* out = dst + static_cast<std::size_t>(i) * cols;
    const float* in = src + static_cast<std::size_t>(idx[i]) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                              _mm256_loadu_ps(in + c)));
    }
    for (; c < cols; ++c) out[c] += in[c];
  }
}

void avx2_scale_rows(float* data, const float* factors, int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    float* row = data + static_cast<std::size_t>(r) * cols;
    const __m256 f8 = _mm256_set1_ps(factors[r]);
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_mul_ps(_mm256_loadu_ps(row + c), f8));
    }
    for (; c < cols; ++c) row[c] *= factors[r];
  }
}

void avx2_add_scaled_rows(float* dst, const float* src, const float* factors,
                          int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    float* out = dst + static_cast<std::size_t>(r) * cols;
    const float* in = src + static_cast<std::size_t>(r) * cols;
    const __m256 f8 = _mm256_set1_ps(factors[r]);
    int c = 0;
    for (; c < c8; c += 8) {
      const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(in + c), f8);
      _mm256_storeu_ps(out + c,
                       _mm256_add_ps(_mm256_loadu_ps(out + c), prod));
    }
    for (; c < cols; ++c) out[c] += in[c] * factors[r];
  }
}

void avx2_axpy(float* y, const float* x, float s, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  const __m256 s8 = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x + i), s8);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += x[i] * s;
}

void avx2_mul_inplace(float* y, const float* x, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void avx2_madd(float* dst, const float* a, const float* b, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void avx2_add_bias_rows(float* m, const float* bias, int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    float* row = m + static_cast<std::size_t>(r) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_add_ps(_mm256_loadu_ps(row + c),
                                              _mm256_loadu_ps(bias + c)));
    }
    for (; c < cols; ++c) row[c] += bias[c];
  }
}

void avx2_colsum_add(float* dst, const float* src, int rows, int cols) {
  const int c8 = cols & ~7;
  for (int r = 0; r < rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * cols;
    int c = 0;
    for (; c < c8; c += 8) {
      _mm256_storeu_ps(dst + c, _mm256_add_ps(_mm256_loadu_ps(dst + c),
                                              _mm256_loadu_ps(row + c)));
    }
    for (; c < cols; ++c) dst[c] += row[c];
  }
}

void avx2_gru_blend(const float* z, const float* h, const float* hc,
                    float* out, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  const __m256 ones = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i < n8; i += 8) {
    const __m256 zv = _mm256_loadu_ps(z + i);
    const __m256 keep =
        _mm256_mul_ps(_mm256_sub_ps(ones, zv), _mm256_loadu_ps(h + i));
    const __m256 cand = _mm256_mul_ps(zv, _mm256_loadu_ps(hc + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(keep, cand));
  }
  for (; i < n; ++i) {
    const float omz = 1.0f - z[i];
    const float keep = omz * h[i];
    const float cand = z[i] * hc[i];
    out[i] = keep + cand;
  }
}

// --- Gate nonlinearities (the recipe in kernels.h) ------------------------
//
// Operation for operation the scalar twin in kernels.cpp. The ragged tail
// runs the same vector code through a masked load/store, so every element
// takes the identical instruction sequence wherever it sits in the buffer.

inline __m256 pow2i8(__m256i k) {
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23));
}

inline __m256 gate_exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(gate::kExpHi), x);
  x = _mm256_max_ps(_mm256_set1_ps(gate::kExpLo), x);
  const __m256 fn = _mm256_floor_ps(_mm256_add_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(gate::kLog2e)), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(fn, _mm256_set1_ps(gate::kExpC1)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(fn, _mm256_set1_ps(gate::kExpC2)));
  __m256 p = _mm256_set1_ps(gate::kExpP[0]);
  for (int i = 1; i < 6; ++i) {
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(gate::kExpP[i]));
  }
  const __m256 y = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
      _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fn);
  const __m256i n1 = _mm256_srai_epi32(n, 1);
  return _mm256_mul_ps(_mm256_mul_ps(y, pow2i8(n1)),
                       pow2i8(_mm256_sub_epi32(n, n1)));
}

inline __m256 sign_mask8() {
  return _mm256_castsi256_ps(
      _mm256_set1_epi32(static_cast<int>(0x80000000u)));
}

inline __m256 gate_sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(
      one, _mm256_add_ps(one, gate_exp8(_mm256_xor_ps(x, sign_mask8()))));
}

inline __m256 gate_tanh8(__m256 x) {
  const __m256 sign = _mm256_and_ps(x, sign_mask8());
  const __m256 a = _mm256_andnot_ps(sign_mask8(), x);
  const __m256 s = _mm256_mul_ps(a, a);
  __m256 q = _mm256_set1_ps(gate::kTanhQ[0]);
  for (int k = 1; k < 5; ++k) {
    q = _mm256_add_ps(_mm256_mul_ps(q, s), _mm256_set1_ps(gate::kTanhQ[k]));
  }
  const __m256 small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(q, s), a), a);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 big = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f),
                         _mm256_add_ps(gate_exp8(_mm256_add_ps(a, a)), one)));
  const __m256 is_small =
      _mm256_cmp_ps(a, _mm256_set1_ps(gate::kTanhSmall), _CMP_LT_OQ);
  return _mm256_or_ps(_mm256_blendv_ps(big, small, is_small), sign);
}

template <__m256 (*Fn)(__m256)>
void apply_inplace(float* x, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  std::size_t i = 0;
  for (; i < n8; i += 8) _mm256_storeu_ps(x + i, Fn(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(x + i, mask, Fn(_mm256_maskload_ps(x + i, mask)));
  }
}

void avx2_sigmoid_inplace(float* x, std::size_t n) {
  apply_inplace<gate_sigmoid8>(x, n);
}

void avx2_tanh_inplace(float* x, std::size_t n) {
  apply_inplace<gate_tanh8>(x, n);
}

constexpr Ops kAvx2Ops = {
    "avx2",
    avx2_matmul_block,
    avx2_matmul_tn_block,
    avx2_matmul_nt_block,
    avx2_gather_rows,
    avx2_scatter_rows,
    avx2_indexed_row_add,
    avx2_gathered_row_add,
    avx2_scale_rows,
    avx2_add_scaled_rows,
    avx2_axpy,
    avx2_mul_inplace,
    avx2_madd,
    avx2_add_bias_rows,
    avx2_colsum_add,
    avx2_gru_blend,
    avx2_sigmoid_inplace,
    avx2_tanh_inplace,
};

// Only the matmuls diverge; everything per-element (the gate nonlinearities
// included) reuses the avx2 kernels.
constexpr Ops kAvx2FmaOps = {
    "avx2fma",
    fma_matmul_block,
    fma_matmul_tn_block,
    fma_matmul_nt_block,
    avx2_gather_rows,
    avx2_scatter_rows,
    avx2_indexed_row_add,
    avx2_gathered_row_add,
    avx2_scale_rows,
    avx2_add_scaled_rows,
    avx2_axpy,
    avx2_mul_inplace,
    avx2_madd,
    avx2_add_bias_rows,
    avx2_colsum_add,
    avx2_gru_blend,
    avx2_sigmoid_inplace,
    avx2_tanh_inplace,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }
const Ops* avx2fma_ops() { return &kAvx2FmaOps; }

}  // namespace rn::ag::kern
