// Scalar reference kernels + backend dispatch. The scalar matmul blocks are
// the cache-blocked loops the parallel-execution layer shipped with (moved
// here verbatim from tensor.cpp) — the bitwise anchor for every backend.
#include "ag/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/check.h"

namespace rn::ag::kern {

#if defined(RN_HAVE_AVX2_TU)
// Defined in kernels_avx2.cpp (compiled with -mavx2); only safe to call
// after a runtime AVX2 check.
const Ops* avx2_ops();
#endif

namespace {

// --- Scalar matmul blocks (the pre-SIMD loops, unchanged) -----------------

void scalar_matmul_block(const float* __restrict__ a,
                         const float* __restrict__ b, float* __restrict__ c,
                         int r0, int r1, int k, int n) {
  for (int ib = r0; ib < r1; ib += kTileRows) {
    const int iend = std::min(r1, ib + kTileRows);
    for (int pb = 0; pb < k; pb += kTileK) {
      const int pend = std::min(k, pb + kTileK);
      for (int i = ib; i < iend; ++i) {
        float* crow = c + static_cast<std::size_t>(i) * n;
        const float* arow = a + static_cast<std::size_t>(i) * k;
        for (int p = pb; p < pend; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + static_cast<std::size_t>(p) * n;
          for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

// p unrolled by two: one pass over the C tile per pair of A/B rows halves
// the read-modify-write traffic on C. The two adds stay sequential (never
// fused into av0*b0 + av1*b1) and zero A entries skip their add exactly
// like the tail loop, so rounding is bitwise identical to the
// one-p-at-a-time serial kernel.
void scalar_matmul_tn_block(const float* __restrict__ a,
                            const float* __restrict__ b,
                            float* __restrict__ c, int r0, int r1, int m,
                            int k, int n) {
  for (int ib = r0; ib < r1; ib += kTileRows) {
    const int iend = std::min(r1, ib + kTileRows);
    int p = 0;
    for (; p + 1 < k; p += 2) {
      const float* arow0 = a + static_cast<std::size_t>(p) * m;
      const float* arow1 = arow0 + m;
      const float* brow0 = b + static_cast<std::size_t>(p) * n;
      const float* brow1 = brow0 + n;
      for (int i = ib; i < iend; ++i) {
        const float av0 = arow0[i];
        const float av1 = arow1[i];
        float* crow = c + static_cast<std::size_t>(i) * n;
        if (av0 != 0.0f && av1 != 0.0f) {
          for (int j = 0; j < n; ++j) {
            crow[j] += av0 * brow0[j];
            crow[j] += av1 * brow1[j];
          }
        } else if (av0 != 0.0f) {
          for (int j = 0; j < n; ++j) crow[j] += av0 * brow0[j];
        } else if (av1 != 0.0f) {
          for (int j = 0; j < n; ++j) crow[j] += av1 * brow1[j];
        }
      }
    }
    for (; p < k; ++p) {
      const float* arow = a + static_cast<std::size_t>(p) * m;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int i = ib; i < iend; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = c + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void scalar_matmul_nt_block(const float* __restrict__ a,
                            const float* __restrict__ b,
                            float* __restrict__ c, int r0, int r1, int k,
                            int n) {
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// --- Scalar row-indexing / elementwise kernels ----------------------------

void scalar_gather_rows(const float* src, const int* idx, int nrows,
                        int cols, float* dst) {
  for (int i = 0; i < nrows; ++i) {
    std::memcpy(dst + static_cast<std::size_t>(i) * cols,
                src + static_cast<std::size_t>(idx[i]) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void scalar_scatter_rows(float* dst, const int* idx, int nrows, int cols,
                         const float* src) {
  for (int i = 0; i < nrows; ++i) {
    std::memcpy(dst + static_cast<std::size_t>(idx[i]) * cols,
                src + static_cast<std::size_t>(i) * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

void scalar_indexed_row_add(float* dst, const int* idx, int nrows, int cols,
                            const float* src) {
  for (int i = 0; i < nrows; ++i) {
    float* out = dst + static_cast<std::size_t>(idx[i]) * cols;
    const float* in = src + static_cast<std::size_t>(i) * cols;
    for (int c = 0; c < cols; ++c) out[c] += in[c];
  }
}

void scalar_gathered_row_add(float* dst, const int* idx, int nrows, int cols,
                             const float* src) {
  for (int i = 0; i < nrows; ++i) {
    float* out = dst + static_cast<std::size_t>(i) * cols;
    const float* in = src + static_cast<std::size_t>(idx[i]) * cols;
    for (int c = 0; c < cols; ++c) out[c] += in[c];
  }
}

void scalar_scale_rows(float* data, const float* factors, int rows,
                       int cols) {
  for (int r = 0; r < rows; ++r) {
    float* row = data + static_cast<std::size_t>(r) * cols;
    const float f = factors[r];
    for (int c = 0; c < cols; ++c) row[c] *= f;
  }
}

void scalar_add_scaled_rows(float* dst, const float* src,
                            const float* factors, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* out = dst + static_cast<std::size_t>(r) * cols;
    const float* in = src + static_cast<std::size_t>(r) * cols;
    const float f = factors[r];
    for (int c = 0; c < cols; ++c) out[c] += in[c] * f;
  }
}

void scalar_axpy(float* y, const float* x, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i] * s;
}

void scalar_mul_inplace(float* y, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void scalar_madd(float* dst, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void scalar_add_bias_rows(float* m, const float* bias, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    float* row = m + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void scalar_colsum_add(float* dst, const float* src, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += row[c];
  }
}

void scalar_gru_blend(const float* z, const float* h, const float* hc,
                      float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float omz = 1.0f - z[i];
    const float keep = omz * h[i];
    const float cand = z[i] * hc[i];
    out[i] = keep + cand;
  }
}

// --- Scalar gate nonlinearities (the recipe in kernels.h) -----------------
//
// Each line mirrors one intrinsic of the avx2 twin; the explicit ternaries
// reproduce _mm256_min_ps/_mm256_max_ps, which return the second operand
// when either is NaN (std::min/std::max would not).

float pow2i(int k) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(k + 127) << 23);
}

float gate_exp(float x) {
  x = gate::kExpHi < x ? gate::kExpHi : x;
  x = gate::kExpLo > x ? gate::kExpLo : x;
  const float fn = std::floor(x * gate::kLog2e + 0.5f);
  float r = x - fn * gate::kExpC1;
  r = r - fn * gate::kExpC2;
  float p = gate::kExpP[0];
  for (int i = 1; i < 6; ++i) p = p * r + gate::kExpP[i];
  const float y = p * (r * r) + r + 1.0f;
  // Only a NaN gets past the clamp, and converting a NaN to int is
  // undefined behaviour, so it scales by 2⁰ instead; y is already that NaN
  // either way.
  const int n = fn == fn ? static_cast<int>(fn) : 0;
  const int n1 = n >> 1;
  return (y * pow2i(n1)) * pow2i(n - n1);
}

void scalar_sigmoid_inplace(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0f / (1.0f + gate_exp(-x[i]));
  }
}

void scalar_tanh_inplace(float* x, std::size_t n) {
  constexpr std::uint32_t kSign = 0x80000000u;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(x[i]);
    const float a = std::bit_cast<float>(bits & ~kSign);
    float t;
    if (a < gate::kTanhSmall) {
      const float s = a * a;
      float q = gate::kTanhQ[0];
      for (int k = 1; k < 5; ++k) q = q * s + gate::kTanhQ[k];
      t = q * s * a + a;
    } else {
      t = 1.0f - 2.0f / (gate_exp(a + a) + 1.0f);
    }
    x[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(t) |
                                (bits & kSign));
  }
}

constexpr Ops kScalarOps = {
    "scalar",
    scalar_matmul_block,
    scalar_matmul_tn_block,
    scalar_matmul_nt_block,
    scalar_gather_rows,
    scalar_scatter_rows,
    scalar_indexed_row_add,
    scalar_gathered_row_add,
    scalar_scale_rows,
    scalar_add_scaled_rows,
    scalar_axpy,
    scalar_mul_inplace,
    scalar_madd,
    scalar_add_bias_rows,
    scalar_colsum_add,
    scalar_gru_blend,
    scalar_sigmoid_inplace,
    scalar_tanh_inplace,
};

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const Ops* table_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarOps;
    case Backend::kAvx2:
#if defined(RN_HAVE_AVX2_TU)
      return cpu_has_avx2() ? avx2_ops() : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Backend backend_from_env() {
  const char* env = std::getenv("RN_KERNELS");
  const std::string want = env == nullptr ? "auto" : env;
  if (want.empty() || want == "auto") {
    return backend_available(Backend::kAvx2) ? Backend::kAvx2
                                             : Backend::kScalar;
  }
  if (want == "scalar") return Backend::kScalar;
  if (want == "avx2") {
    RN_CHECK(backend_available(Backend::kAvx2),
             "RN_KERNELS=avx2 but the avx2 backend is unavailable "
             "(CPU lacks AVX2 or the binary was built without it)");
    return Backend::kAvx2;
  }
  RN_CHECK(false,
           "RN_KERNELS must be scalar, avx2, or auto (got '" + want + "')");
  return Backend::kScalar;
}

// The one record of the active backend: its table. RN_KERNELS is parsed
// once, on first use; the backend is derived from the table, so a reader
// can never see a backend and a table that disagree.
std::atomic<const Ops*>& active_table() {
  static std::atomic<const Ops*> table{table_for(backend_from_env())};
  return table;
}

Backend backend_of(const Ops* table) {
  return table == &kScalarOps ? Backend::kScalar : Backend::kAvx2;
}

}  // namespace

const Ops& active() { return *active_table().load(std::memory_order_relaxed); }

Backend active_backend() {
  return backend_of(active_table().load(std::memory_order_relaxed));
}

bool backend_available(Backend backend) {
  return table_for(backend) != nullptr;
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "?";
}

const Ops& ops(Backend backend) {
  const Ops* table = table_for(backend);
  RN_CHECK(table != nullptr, std::string("kernel backend unavailable: ") +
                                 backend_name(backend));
  return *table;
}

Backend set_kernel_backend(Backend backend) {
  const Ops* table = table_for(backend);
  RN_CHECK(table != nullptr, std::string("kernel backend unavailable: ") +
                                 backend_name(backend));
  return backend_of(
      active_table().exchange(table, std::memory_order_relaxed));
}

}  // namespace rn::ag::kern
