// SIMD kernel layer: the raw inner loops of the autodiff hot path, behind a
// runtime-dispatched backend table.
//
// Backends:
//   scalar  — the reference implementation: exactly the pre-SIMD loops plus
//             the gate-nonlinearity recipe below, the bitwise anchor every
//             other backend is tested against.
//   avx2    — 8-wide AVX2 using separate multiply and add instructions in
//             the same per-element accumulation order (and the same
//             zero-entry skips) as the scalar loops, so results are bitwise
//             identical to scalar. The default wherever the CPU supports it.
//
// Selection: RN_KERNELS=scalar|avx2 (or `auto`/unset for avx2 where the
// CPU supports it, scalar otherwise), read once at first kernel use; any
// other value fails fast. `set_kernel_backend` is the programmatic/test
// seam. A backend compiled out of the binary or unsupported by the CPU
// fails fast with a clear message rather than silently falling back.
//
// Every function operates on row-major float buffers. The matmul block
// kernels compute C-row ranges [r0, r1) and are driven by the parallel
// chunking in tensor.cpp; all other kernels are sequential over rows by
// contract (indexed adds must preserve ascending-index accumulation order).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rn::ag::kern {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

// C-row tile: one parallel chunk's working set of output rows — also the
// grain multiple of the row-range chunking in tensor.cpp, so a chunk never
// splits a tile. kTileK is the inner-dimension panel kept cache-resident
// across a row tile: the scalar nn matmul's, and the avx2 tn matmul's,
// where p runs over the batch rows and every output row pair passes over
// one panel of A and B before the next.
inline constexpr int kTileRows = 32;
inline constexpr int kTileK = 240;

struct Ops {
  const char* name;

  // c[r0:r1) += a[r0:r1) * b for row-major a (m×k), b (k×n).
  void (*matmul_block)(const float* a, const float* b, float* c, int r0,
                       int r1, int k, int n);
  // c[r0:r1) += aᵀ[r0:r1) * b for row-major a (k×m), b (k×n).
  void (*matmul_tn_block)(const float* a, const float* b, float* c, int r0,
                          int r1, int m, int k, int n);
  // c[r0:r1) += a[r0:r1) * bᵀ for row-major a (m×k), b (n×k).
  void (*matmul_nt_block)(const float* a, const float* b, float* c, int r0,
                          int r1, int k, int n);

  // dst[i] = src[idx[i]] for i in [0, nrows).
  void (*gather_rows)(const float* src, const int* idx, int nrows, int cols,
                      float* dst);
  // dst[idx[i]] = src[i] (unique idx by caller contract).
  void (*scatter_rows)(float* dst, const int* idx, int nrows, int cols,
                       const float* src);
  // dst[idx[i]] += src[i], ascending i (segment_sum forward, gather/scatter
  // backward). Duplicate indices accumulate in order.
  void (*indexed_row_add)(float* dst, const int* idx, int nrows, int cols,
                          const float* src);
  // dst[i] += src[idx[i]], ascending i (segment_sum backward).
  void (*gathered_row_add)(float* dst, const int* idx, int nrows, int cols,
                           const float* src);
  // data[r] *= factors[r], elementwise per row.
  void (*scale_rows)(float* data, const float* factors, int rows, int cols);
  // dst[r] += src[r] * factors[r] (scale_rows backward).
  void (*add_scaled_rows)(float* dst, const float* src, const float* factors,
                          int rows, int cols);

  // y += x * s.
  void (*axpy)(float* y, const float* x, float s, std::size_t n);
  // y *= x, elementwise.
  void (*mul_inplace)(float* y, const float* x, std::size_t n);
  // dst += a ∘ b, elementwise.
  void (*madd)(float* dst, const float* a, const float* b, std::size_t n);
  // m[r] += bias for every row (bias is 1×cols).
  void (*add_bias_rows)(float* m, const float* bias, int rows, int cols);
  // dst[c] += Σ_r src[r][c], ascending r (bias gradient).
  void (*colsum_add)(float* dst, const float* src, int rows, int cols);
  // out = (1−z)∘h + z∘hc with the exact scalar operation order
  // (1−z, (1−z)·h, z·hc, sum) so the fused GRU matches the composed ops.
  void (*gru_blend)(const float* z, const float* h, const float* hc,
                    float* out, std::size_t n);
  // x = 1/(1+exp(−x)) and x = tanh(x), elementwise — the GRU gate
  // nonlinearities, computed by the shared recipe below.
  void (*sigmoid_inplace)(float* x, std::size_t n);
  void (*tanh_inplace)(float* x, std::size_t n);
};

// Gate nonlinearities. Both backends evaluate one recipe built only from
// IEEE add/sub/mul/div, floor, min/max and exponent-bit construction, in
// the same operation order and never fused, so scalar and avx2 agree
// bitwise on every input (libm's expf/tanhf differ between libm builds and
// have no vector twin, so they cannot keep that contract):
//
//   exp(x):  clamp x to [kExpLo, kExpHi] as min(hi, x) then max(lo, x)
//            (the _mm256_min_ps/_mm256_max_ps operand order, so a NaN
//            passes through); n = floor(x·log2e + ½); r = (x − n·C1) − n·C2
//            (Cody–Waite); p = ((P0·r + P1)·r + … + P5)·r² + r + 1; the
//            result is (p·2^⌊n/2⌋)·2^(n−⌊n/2⌋), both factors built from
//            exponent bits. The split scale keeps every factor a normal
//            float, so results overflow to +inf above ~88.72 and underflow
//            gradually (subnormals, then 0) below ~−87.3.
//   sigmoid: 1/(1 + exp(−x)).
//   tanh:    on a = |x|: a < 0.625 → (((Q0·s + Q1)·s + … + Q4)·s)·a + a
//            with s = a², else 1 − 2/(exp(a + a) + 1); the sign bit of x
//            is then copied onto the result.
//
// Accuracy against a double reference: tanh within 2 ULP on every finite
// float; sigmoid within 2 ULP for x ≥ −80 and within 1e-7 absolute
// everywhere. NaN in → NaN out; sigmoid(+inf) = 1, sigmoid(−inf) = 0,
// tanh(±inf) = ±1, tanh(±0) = ±0.
namespace gate {
inline constexpr float kExpHi = 89.0f;
inline constexpr float kExpLo = -104.0f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kExpC1 = 0.693359375f;
inline constexpr float kExpC2 = -2.12194440e-4f;
inline constexpr float kExpP[6] = {1.9875691500e-4f, 1.3981999507e-3f,
                                   8.3334519073e-3f, 4.1665795894e-2f,
                                   1.6666665459e-1f, 5.0000001201e-1f};
inline constexpr float kTanhSmall = 0.625f;
inline constexpr float kTanhQ[5] = {-5.70498872745e-3f, 2.06390887954e-2f,
                                    -5.37397155531e-2f, 1.33314422036e-1f,
                                    -3.33332819422e-1f};
}  // namespace gate

// The active backend's table (resolves RN_KERNELS on first call).
const Ops& active();
Backend active_backend();

// The table for a specific backend — bench/test access. RN_CHECK-fails for
// a backend that is compiled out or unsupported by this CPU.
const Ops& ops(Backend backend);

bool backend_available(Backend backend);
const char* backend_name(Backend backend);

// Switches the active backend; returns the previous one. Fails fast when
// the requested backend is unavailable.
Backend set_kernel_backend(Backend backend);

}  // namespace rn::ag::kern
