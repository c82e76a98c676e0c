// AVX2 backend. This TU is the only one compiled with -mavx2 (plus
// -ffp-contract=off so the compiler cannot fuse the separate mul/add
// sequences behind our back); kernels.cpp only calls avx2_ops() after a
// runtime AVX2 check.
//
// Bitwise contract: every kernel performs the exact same per-element
// arithmetic sequence as the scalar reference — same ascending
// accumulation order, separate _mm256_mul_ps + _mm256_add_ps (never fused),
// and the same `av == 0.0f` skip in the matmul row loops. Vectorizing over
// the output column axis is safe because each output element's operation
// chain is untouched; only independent elements are packed into one vector.
// Remainder columns run the scalar loop verbatim.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "ag/kernels.h"

namespace rn::ag::kern {

namespace {

// --- avx2: bitwise-identical matmuls --------------------------------------
//
// All three row-major matmuls are register-blocked: a tile of up to 32
// output columns accumulates in four ymm registers across a p range, then
// stores once. Per output element the arithmetic sequence is unchanged
// from scalar (one mul, one add per p, ascending p, the same zero skips) —
// holding the accumulator in a register instead of round-tripping through
// C memory does not change any rounding, it just removes the store-to-load
// chain that capped the memory-accumulating version at scalar speed.

// One (i, j-tile) accumulation over p in [p0, p1), carried in and out of C.
// Scalar reads a[i][p] at stride `astride` (1 for nn where a is row-major,
// m for tn where a is transposed).
template <int Tiles>
inline void accum_col_tile(const float* acol, std::size_t astride,
                           const float* b, float* crow, int j, int p0, int p1,
                           int n) {
  __m256 acc[Tiles];
  for (int t = 0; t < Tiles; ++t) {
    acc[t] = _mm256_loadu_ps(crow + j + 8 * t);
  }
  for (int p = p0; p < p1; ++p) {
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

// The scalar loop verbatim for one remainder column over p in [p0, p1).
inline void accum_col_scalar(const float* acol, std::size_t astride,
                             const float* b, float* crow, int j, int p0,
                             int p1, int n) {
  float acc = crow[j];
  for (int p = p0; p < p1; ++p) {
    const float av = acol[static_cast<std::size_t>(p) * astride];
    if (av == 0.0f) continue;
    acc += av * b[static_cast<std::size_t>(p) * n + j];
  }
  crow[j] = acc;
}

// Shared by nn and tn: walk one output row, tiling columns 32/8/scalar.
inline void matmul_row_avx2(const float* acol, std::size_t astride,
                            const float* b, float* crow, int p0, int p1,
                            int n) {
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    accum_col_tile<4>(acol, astride, b, crow, j, p0, p1, n);
  }
  for (; j + 8 <= n; j += 8) {
    accum_col_tile<1>(acol, astride, b, crow, j, p0, p1, n);
  }
  for (; j < n; ++j) accum_col_scalar(acol, astride, b, crow, j, p0, p1, n);
}

void avx2_matmul_block(const float* a, const float* b, float* c, int r0,
                       int r1, int k, int n) {
  for (int i = r0; i < r1; ++i) {
    matmul_row_avx2(a + static_cast<std::size_t>(i) * k, 1, b,
                    c + static_cast<std::size_t>(i) * n, 0, k, n);
  }
}

// accum_col_tile for the two adjacent tn output rows i and i+1 (a points at
// column i of the k×m operand): each B-row load feeds both rows, while
// each row keeps its own accumulator chain and its own zero skip, so every
// element sees exactly the single-row sequence.
template <int Tiles>
inline void accum_col_tile_pair(const float* acol, std::size_t m,
                                const float* b, float* crow0, float* crow1,
                                int j, int p0, int p1, int n) {
  __m256 acc0[Tiles], acc1[Tiles];
  for (int t = 0; t < Tiles; ++t) {
    acc0[t] = _mm256_loadu_ps(crow0 + j + 8 * t);
    acc1[t] = _mm256_loadu_ps(crow1 + j + 8 * t);
  }
  for (int p = p0; p < p1; ++p) {
    const float* arow = acol + static_cast<std::size_t>(p) * m;
    const float av0 = arow[0];
    const float av1 = arow[1];
    if (av0 == 0.0f && av1 == 0.0f) continue;
    const float* brow = b + static_cast<std::size_t>(p) * n + j;
    __m256 bv[Tiles];
    for (int t = 0; t < Tiles; ++t) bv[t] = _mm256_loadu_ps(brow + 8 * t);
    if (av0 != 0.0f) {
      const __m256 av8 = _mm256_set1_ps(av0);
      for (int t = 0; t < Tiles; ++t) {
        acc0[t] = _mm256_add_ps(acc0[t], _mm256_mul_ps(av8, bv[t]));
      }
    }
    if (av1 != 0.0f) {
      const __m256 av8 = _mm256_set1_ps(av1);
      for (int t = 0; t < Tiles; ++t) {
        acc1[t] = _mm256_add_ps(acc1[t], _mm256_mul_ps(av8, bv[t]));
      }
    }
  }
  for (int t = 0; t < Tiles; ++t) {
    _mm256_storeu_ps(crow0 + j + 8 * t, acc0[t]);
    _mm256_storeu_ps(crow1 + j + 8 * t, acc1[t]);
  }
}

// Weight gradients: a is the tall rows×m activation, so a full-p sweep per
// output row would stream all of B once per row. Instead p runs in panels
// of kTileK rows that stay cache-resident while every output row passes
// over them; C carries each element's running sum from one panel to the
// next (a float store and reload is exact), so the per-element chain is
// still the scalar one. Output rows go in pairs; an odd last row takes the
// single-row path.
void avx2_matmul_tn_block(const float* a, const float* b, float* c, int r0,
                          int r1, int m, int k, int n) {
  const auto stride = static_cast<std::size_t>(m);
  for (int pb = 0; pb < k; pb += kTileK) {
    const int pend = std::min(k, pb + kTileK);
    int i = r0;
    for (; i + 2 <= r1; i += 2) {
      float* crow0 = c + static_cast<std::size_t>(i) * n;
      float* crow1 = crow0 + n;
      int j = 0;
      for (; j + 32 <= n; j += 32) {
        accum_col_tile_pair<4>(a + i, stride, b, crow0, crow1, j, pb, pend,
                               n);
      }
      for (; j + 8 <= n; j += 8) {
        accum_col_tile_pair<1>(a + i, stride, b, crow0, crow1, j, pb, pend,
                               n);
      }
      for (; j < n; ++j) {
        accum_col_scalar(a + i, stride, b, crow0, j, pb, pend, n);
        accum_col_scalar(a + i + 1, stride, b, crow1, j, pb, pend, n);
      }
    }
    if (i < r1) {
      matmul_row_avx2(a + i, stride, b, c + static_cast<std::size_t>(i) * n,
                      pb, pend, n);
    }
  }
}

// One (i, j-tile) of dx = da·Wᵀ over the packed B: every lane starts from
// zero and runs its column's ascending-p dot product (one mul, one add per
// p, no zero skip — the scalar dot product has none), then adds into C
// once, exactly like the scalar loop.
template <int Tiles>
inline void dot_col_tile(const float* arow, const float* bt, float* crow,
                         int j, int k, int ldb) {
  __m256 acc[Tiles];
  for (int t = 0; t < Tiles; ++t) acc[t] = _mm256_setzero_ps();
  for (int p = 0; p < k; ++p) {
    const __m256 av8 = _mm256_set1_ps(arow[p]);
    const float* bp = bt + static_cast<std::size_t>(p) * ldb + j;
    for (int t = 0; t < Tiles; ++t) {
      acc[t] = _mm256_add_ps(acc[t],
                             _mm256_mul_ps(av8, _mm256_loadu_ps(bp + 8 * t)));
    }
  }
  for (int t = 0; t < Tiles; ++t) {
    _mm256_storeu_ps(crow + j + 8 * t,
                     _mm256_add_ps(_mm256_loadu_ps(crow + j + 8 * t), acc[t]));
  }
}

// Lane-per-output-column: 8 adjacent columns of C accumulate in parallel.
// The B elements those columns need at one p sit a row (k floats) apart in
// the n×k operand, so B's first n8 rows (one per output column) are packed
// transposed (bt[p][j] = b[j][p]) once per call, and every step is one
// contiguous load.
// Packing only moves values, so each lane multiplies and adds the same
// operands in the same order as the scalar dot product.
void avx2_matmul_nt_block(const float* a, const float* b, float* c, int r0,
                          int r1, int k, int n) {
  const int n8 = n & ~7;
  std::vector<float> bt(static_cast<std::size_t>(k) * n8);
  for (int j = 0; j < n8; ++j) {
    const float* brow = b + static_cast<std::size_t>(j) * k;
    for (int p = 0; p < k; ++p) {
      bt[static_cast<std::size_t>(p) * n8 + j] = brow[p];
    }
  }
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 32 <= n8; j += 32) {
      dot_col_tile<4>(arow, bt.data(), crow, j, k, n8);
    }
    for (; j < n8; j += 8) dot_col_tile<1>(arow, bt.data(), crow, j, k, n8);
    for (; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// --- Row-indexing / elementwise kernels (bitwise-safe) ---------------------

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

}  // namespace

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace rn::ag::kern
