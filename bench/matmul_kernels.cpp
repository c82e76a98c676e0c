// Microbenchmark for the kernel layer.
//
// Two jobs:
//   1. The single-threaded regression guard — no blocked kernel may be
//      >10% slower than its naive counterpart (median of 5; WARNING
//      always, exit 1 under RN_BENCH_ENFORCE).
//   2. A backend report: every compiled-in kernel backend
//      (scalar / avx2) timed on the matmul shapes at paper sizes (state
//      dims 16–64, Geant2-scale row counts) — including backward's two:
//      the weight gradient (rows×dim)ᵀ·(rows×dim) and dx = (rows×dim)·
//      (dim×dim)ᵀ — the index ops (gather_rows; indexed_row_add, the
//      segment_sum accumulate; scale_rows; gather_rows_tile32, the GRU
//      tile's 32-row gather from an L2-resident source), the sigmoid /
//      tanh gate kernels, and the fused GRU step against its composed
//      reference — written to BENCH_kernels.json in
//      the bench cache. Under RN_BENCH_ENFORCE the report is also a gate:
//      avx2 over scalar must reach ≥1.5x on the nn matmul at every dim,
//      ≥1.5x on the weight-gradient tn at dims 32 and 64, and ≥2.5x on
//      the dx nt at every dim; every avx2 result must be bitwise identical
//      to scalar, and the fused GRU step must match the composed one
//      bitwise.
//
// Every timing sample is a batch of calls lasting at least kMinSampleS of
// the thread's CPU time, so a sample of a 50 µs kernel is neither one call
// nor stretched by the time the scheduler takes the thread away.
//
//   ./matmul_kernels
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ag/kernels.h"
#include "ag/nn.h"
#include "ag/tape.h"
#include "ag/tensor.h"
#include "bench_common.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace {

using rn::ag::Tensor;
namespace kern = rn::ag::kern;

// RouteNet batch shape: thousands of path/link rows, 32–64-wide states.
constexpr int kM = 4096, kK = 64, kN = 64;

Tensor random_tensor(int rows, int cols, std::uint64_t seed) {
  rn::Rng rng(seed);
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

const Tensor& A() {
  static const Tensor t = random_tensor(kM, kK, 1);
  return t;
}
const Tensor& B() {
  static const Tensor t = random_tensor(kK, kN, 2);
  return t;
}
const Tensor& At() {
  static const Tensor t = random_tensor(kK, kM, 3);
  return t;
}
const Tensor& Bt() {
  static const Tensor t = random_tensor(kN, kK, 4);
  return t;
}

// The pre-blocking kernels, kept verbatim as the baseline.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    float* crow = c.row(i);
    const float* arow = a.row(i);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.row(p);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  const int k = a.rows(), n = b.cols();
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < c.rows(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  for (int i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
  return c;
}

// Keeps a timed call's result observable, so the compiler cannot drop the
// call.
volatile float g_sink = 0.0f;
void sink(const Tensor& t) {
  if (!t.empty()) g_sink = t[0];
}
void sink(const float* p) { g_sink = p[0]; }

// Seconds of CPU time the calling thread has used. Every timing here runs
// on one thread (par::set_global_threads(1)), so this is the kernels' own
// time; unlike wall time it stops while the thread is preempted, which a
// loaded host (a parallel ctest) does for milliseconds at a time.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// A sample's minimum duration: long enough to swamp timer resolution and
// cache and frequency noise, short enough that a full report stays
// seconds-scale.
constexpr double kMinSampleS = 2e-3;

// Calls per sample of fn: doubled from one until a batch lasts
// kMinSampleS. The first call warms caches.
template <typename Fn>
int calls_per_sample(const Fn& fn) {
  sink(fn());
  for (int calls = 1;; calls *= 2) {
    const double t0 = thread_cpu_s();
    for (int i = 0; i < calls; ++i) sink(fn());
    if (thread_cpu_s() - t0 >= kMinSampleS) return calls;
  }
}

// CPU seconds per call over one batch of `calls` calls.
template <typename Fn>
double sample_s(const Fn& fn, int calls) {
  const double t0 = thread_cpu_s();
  for (int i = 0; i < calls; ++i) sink(fn());
  return (thread_cpu_s() - t0) / calls;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Median-of-reps seconds per call; the median shrugs off one-off scheduler
// blips that would make a guard on the mean flaky.
template <typename Fn>
double median_time_s(const Fn& fn, int reps = 5) {
  const int calls = calls_per_sample(fn);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) times.push_back(sample_s(fn, calls));
  return median(std::move(times));
}

// The guarded expectation: every blocked kernel stays within 10% of its
// naive counterpart single-threaded. Returns the number of violations.
int check_blocked_vs_naive() {
  rn::par::set_global_threads(1);
  const bool enforce = std::getenv("RN_BENCH_ENFORCE") != nullptr;
  struct Row {
    const char* name;
    double naive_s;
    double blocked_s;
  };
  const Row rows[] = {
      {"nn", median_time_s([] { return naive_matmul(A(), B()); }),
       median_time_s([] { return rn::ag::matmul(A(), B()); })},
      {"tn", median_time_s([] { return naive_matmul_tn(At(), B()); }),
       median_time_s([] { return rn::ag::matmul_tn(At(), B()); })},
      {"nt", median_time_s([] { return naive_matmul_nt(A(), Bt()); }),
       median_time_s([] { return rn::ag::matmul_nt(A(), Bt()); })},
  };
  int violations = 0;
  for (const Row& row : rows) {
    const double ratio =
        row.blocked_s > 0.0 ? row.naive_s / row.blocked_s : 0.0;
    std::printf("guard %s: blocked/naive speedup %.2fx%s\n", row.name, ratio,
                ratio < 1.0 / 1.10 ? "  <-- REGRESSION (>1.10x slower)" : "");
    if (row.blocked_s > row.naive_s * 1.10) {
      ++violations;
      std::printf("WARNING: blocked %s kernel is %.0f%% slower than the "
                  "naive loop at 1 thread\n",
                  row.name, 100.0 * (row.blocked_s / row.naive_s - 1.0));
    }
  }
  if (violations > 0 && enforce) {
    std::printf("RN_BENCH_ENFORCE set: failing on kernel regression\n");
    return violations;
  }
  return 0;
}

// --- Backend report ---------------------------------------------------------

const char* scale_name() {
  static const std::string name = rn::bench::scale_from_env().name;
  return name.c_str();
}

bool smoke_scale() { return std::strcmp(scale_name(), "smoke") == 0; }

constexpr int kNumBackends = 2;
constexpr kern::Backend kBackends[kNumBackends] = {kern::Backend::kScalar,
                                                   kern::Backend::kAvx2};

// Per-(backend, shape) matmul GFLOP/s at one thread, plus the index-op
// family and the fused GRU step. All timings single-threaded so the numbers
// isolate the kernel, not the chunking. `tn` is (k×m)ᵀ·(k×n) with the
// rows on m; `tn_wgrad` is backward's weight gradient, with the rows on
// the summed k; `nt` is backward's dx.
// One gated avx2/scalar cell's paired measurement: the median ratio, and
// the samples it came from, printed when the cell misses its bound.
struct Speedup {
  double median = -1;  // -1 = no avx2
  int scalar_calls = 0, avx2_calls = 0;  // calls per sample
  std::vector<double> ratios;            // one per pair, in run order
};

struct ShapeReport {
  int m, k, n;
  Tensor a{}, b{}, at{}, bt{}, g{};  // operands
  // [backend] -> gflops, in kBackends order; -1 = unavailable.
  double nn[kNumBackends] = {-1, -1};
  double tn[kNumBackends] = {-1, -1};
  double tn_wgrad[kNumBackends] = {-1, -1};
  double nt[kNumBackends] = {-1, -1};
  Speedup nn_speedup{}, tn_wgrad_speedup{}, nt_speedup{};
};

// One gated avx2/scalar cell: the timed call and where its speedup goes.
struct SpeedupCell {
  std::function<Tensor()> fn;
  Speedup* out;
};

// Each cell's avx2/scalar speedup as the median ratio over nine pairs of
// samples, a scalar batch and an avx2 batch back to back: pairing cancels
// clock drift. The pairs run round-robin over the cells, so every cell's
// pairs span the whole measurement, and a burst of host noise (this also
// runs under a parallel ctest) lands on a pair or two of each cell rather
// than on every pair of one. Leaves the avx2 backend active.
void paired_speedups(const std::vector<SpeedupCell>& cells) {
  for (const SpeedupCell& cell : cells) {
    kern::set_kernel_backend(kern::Backend::kScalar);
    cell.out->scalar_calls = calls_per_sample(cell.fn);
    kern::set_kernel_backend(kern::Backend::kAvx2);
    cell.out->avx2_calls = calls_per_sample(cell.fn);
  }
  for (int round = 0; round < 9; ++round) {
    for (const SpeedupCell& cell : cells) {
      kern::set_kernel_backend(kern::Backend::kScalar);
      const double ts = sample_s(cell.fn, cell.out->scalar_calls);
      kern::set_kernel_backend(kern::Backend::kAvx2);
      const double tv = sample_s(cell.fn, cell.out->avx2_calls);
      cell.out->ratios.push_back(tv > 0.0 ? ts / tv : 0.0);
    }
  }
  for (const SpeedupCell& cell : cells) {
    cell.out->median = median(cell.out->ratios);
  }
}

bool tensors_bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// One GRU step on a fresh tape: the cell's fused op, or the composed
// reference chain. Returns the new-hidden value so the two can also be
// compared bitwise.
Tensor gru_once(const rn::ag::GruCell& cell, const Tensor& x, const Tensor& h,
                bool fused) {
  rn::ag::Tape tape;
  const rn::ag::ValueId xv = tape.constant(x);
  const rn::ag::ValueId hv = tape.constant(h);
  const rn::ag::ValueId out =
      fused ? cell.step(tape, xv, hv)
            : rn::ag::composed_gru_step(tape, xv, hv, cell.weights());
  return tape.value(out);
}

int run_backend_report() {
  const bool enforce = std::getenv("RN_BENCH_ENFORCE") != nullptr;
  rn::par::set_global_threads(1);
  const kern::Backend saved_backend = kern::active_backend();
  int violations = 0;
  // Every avx2 result memcmp-equal to scalar (matmuls and gate ops).
  bool bitwise = true;

  // Geant2-scale row count (every path-hop row of a merged batch) over the
  // paper's state-dim range; smoke shrinks rows, not shapes.
  const int rows = smoke_scale() ? 512 : kM;
  std::vector<ShapeReport> shapes;
  for (const int dim : {16, 32, 64}) {
    shapes.push_back(ShapeReport{rows, dim, dim});
  }

  std::printf("\n== kernel backends (1 thread, %d rows) ==\n", rows);
  std::vector<SpeedupCell> cells;
  for (ShapeReport& shape : shapes) {
    shape.a = random_tensor(shape.m, shape.k, 11);
    shape.b = random_tensor(shape.k, shape.n, 12);
    shape.at = random_tensor(shape.k, shape.m, 13);
    shape.bt = random_tensor(shape.n, shape.k, 14);
    shape.g = random_tensor(shape.m, shape.n, 15);
    const ShapeReport& in = shape;
    auto nn = [&in] { return rn::ag::matmul(in.a, in.b); };
    auto tn = [&in] { return rn::ag::matmul_tn(in.at, in.b); };
    auto tn_wgrad = [&in] { return rn::ag::matmul_tn(in.a, in.g); };
    auto nt = [&in] { return rn::ag::matmul_nt(in.a, in.bt); };
    const double gflop =
        2.0 * shape.m * shape.k * shape.n / 1e9;
    Tensor ref_nn, ref_tn, ref_tn_wgrad, ref_nt;
    for (int bi = 0; bi < kNumBackends; ++bi) {
      if (!kern::backend_available(kBackends[bi])) continue;
      kern::set_kernel_backend(kBackends[bi]);
      shape.nn[bi] = gflop / median_time_s(nn);
      shape.tn[bi] = gflop / median_time_s(tn);
      shape.tn_wgrad[bi] = gflop / median_time_s(tn_wgrad);
      shape.nt[bi] = gflop / median_time_s(nt);
      std::printf("  %4dx%2dx%2d %-8s nn %6.2f / tn %6.2f / tn_wgrad %6.2f "
                  "/ nt %6.2f GFLOP/s\n",
                  shape.m, shape.k, shape.n,
                  kern::backend_name(kBackends[bi]), shape.nn[bi],
                  shape.tn[bi], shape.tn_wgrad[bi], shape.nt[bi]);
      // Bitwise contract: scalar and avx2 must agree exactly.
      if (kBackends[bi] == kern::Backend::kScalar) {
        ref_nn = nn();
        ref_tn = tn();
        ref_tn_wgrad = tn_wgrad();
        ref_nt = nt();
      } else if (!tensors_bitwise_equal(ref_nn, nn()) ||
                 !tensors_bitwise_equal(ref_tn, tn()) ||
                 !tensors_bitwise_equal(ref_tn_wgrad, tn_wgrad()) ||
                 !tensors_bitwise_equal(ref_nt, nt())) {
        std::printf("WARNING: avx2 backend diverges bitwise from scalar "
                    "at %dx%dx%d\n",
                    shape.m, shape.k, shape.n);
        ++violations;
        bitwise = false;
      }
    }
    if (shape.nn[1] > 0.0) {
      cells.push_back({nn, &shape.nn_speedup});
      cells.push_back({tn_wgrad, &shape.tn_wgrad_speedup});
      cells.push_back({nt, &shape.nt_speedup});
    }
  }

  // The acceptance gates: avx2 over scalar on the forward nn and on
  // backward's two matmuls, from interleaved pairs. Weight-gradient tn at
  // dim 16 is only reported: with two 8-column tiles per row, the per-p
  // scalar loads and zero tests dominate (it measures 1.0–1.6x).
  paired_speedups(cells);
  for (const ShapeReport& shape : shapes) {
    if (shape.nn_speedup.median < 0.0) continue;
    const struct {
      const char* name;
      const Speedup& speedup;
      double min;  // 0 = reported, not gated
    } gates[] = {
        {"nn", shape.nn_speedup, 1.5},
        {"tn_wgrad", shape.tn_wgrad_speedup, shape.k >= 32 ? 1.5 : 0.0},
        {"nt", shape.nt_speedup, 2.5},
    };
    for (const auto& gate : gates) {
      const Speedup& sp = gate.speedup;
      const bool below = sp.median < gate.min;
      std::printf("  %4dx%2dx%2d avx2/scalar %s speedup: %.2fx%s\n",
                  shape.m, shape.k, shape.n, gate.name, sp.median,
                  below ? "  <-- BELOW GATE" : "");
      if (!below) continue;
      ++violations;
      // Whether one pair or all of them read low tells host noise from a
      // slow kernel.
      std::printf("    pair ratios:");
      for (const double r : sp.ratios) std::printf(" %.2f", r);
      std::printf("\n    calls per sample: scalar %d, avx2 %d\n",
                  sp.scalar_calls, sp.avx2_calls);
    }
  }

  // Fused vs composed GRU step at a paper-sized hop batch (tape recording
  // included — node elimination is the point of the fusion).
  rn::Rng gru_rng(77);
  rn::ag::GruCell cell(32, 32, gru_rng, "bench.gru");
  const Tensor gx = random_tensor(rows, 32, 21);
  const Tensor gh = random_tensor(rows, 32, 22);
  const double composed_s =
      median_time_s([&] { return gru_once(cell, gx, gh, false); });
  const double fused_s =
      median_time_s([&] { return gru_once(cell, gx, gh, true); });
  const bool gru_bitwise = tensors_bitwise_equal(
      gru_once(cell, gx, gh, false), gru_once(cell, gx, gh, true));
  const double gru_speedup = fused_s > 0.0 ? composed_s / fused_s : 0.0;
  std::printf("  gru  fused/composed speedup: %.2fx (bitwise %s)\n",
              gru_speedup, gru_bitwise ? "identical" : "DIVERGENT");
  if (!gru_bitwise) ++violations;

  // Index-op family: bytes moved per second at the 64-wide state, strided
  // access pattern of a merged Geant2 batch.
  const int idx_rows = smoke_scale() ? 4096 : 65536;
  const int idx_cols = 64;
  const Tensor src = random_tensor(idx_rows, idx_cols, 31);
  std::vector<int> idx(static_cast<std::size_t>(idx_rows));
  rn::Rng idx_rng(32);
  for (int i = 0; i < idx_rows; ++i) {
    idx[static_cast<std::size_t>(i)] = idx_rng.uniform_int(0, idx_rows - 1);
  }
  // A batch applies scale_rows many times to one buffer, so calls
  // alternate between the factors and their reciprocals: the values stay
  // in range instead of drifting into infinities and subnormals.
  std::vector<float> factors[2];
  for (int i = 0; i < idx_rows; ++i) {
    const auto f = static_cast<float>(idx_rng.uniform(0.25, 4.0));
    factors[0].push_back(f);
    factors[1].push_back(1.0f / f);
  }
  int scale_calls = 0;
  const double bytes =
      2.0 * idx_rows * idx_cols * sizeof(float);  // read + write
  struct IndexRow {
    const char* name;
    double gb_per_s[kNumBackends] = {-1, -1};
  };
  IndexRow index_rows[] = {{"gather_rows"}, {"indexed_row_add"},
                           {"scale_rows"}, {"gather_rows_tile32"}};
  Tensor dst(idx_rows, idx_cols);
  // The rows above read a 16 MB source at random, so they time DRAM. The
  // GRU tile gathers 32 rows at a time from an L×32 projection that fits
  // in L2; gather_rows_tile32 does that (L = 2 048, 256 KB), each call at
  // the next 32 entries of the random index stream, so it shows the
  // per-row cost. Reported, not gated.
  constexpr int kTileRows = 32;
  constexpr int kTileCols = 32;
  constexpr int kTileSrcRows = 2048;
  const Tensor tile_src = random_tensor(kTileSrcRows, kTileCols, 34);
  std::vector<int> tile_idx(idx.size());
  for (int& i : tile_idx) i = idx_rng.uniform_int(0, kTileSrcRows - 1);
  Tensor tile_dst(kTileRows, kTileCols);
  std::size_t tile_pos = 0;
  const double tile_bytes = 2.0 * kTileRows * kTileCols * sizeof(float);
  for (int bi = 0; bi < kNumBackends; ++bi) {
    if (!kern::backend_available(kBackends[bi])) continue;
    const kern::Ops& ops = kern::ops(kBackends[bi]);
    index_rows[0].gb_per_s[bi] =
        bytes / 1e9 / median_time_s([&] {
          ops.gather_rows(src.data(), idx.data(), idx_rows, idx_cols,
                          dst.data());
          return dst.data();
        });
    index_rows[1].gb_per_s[bi] =
        bytes / 1e9 / median_time_s([&] {
          ops.indexed_row_add(dst.data(), idx.data(), idx_rows, idx_cols,
                              src.data());
          return dst.data();
        });
    index_rows[2].gb_per_s[bi] =
        bytes / 1e9 / median_time_s([&] {
          ops.scale_rows(dst.data(), factors[scale_calls++ % 2].data(),
                         idx_rows, idx_cols);
          return dst.data();
        });
    index_rows[3].gb_per_s[bi] =
        tile_bytes / 1e9 / median_time_s([&] {
          ops.gather_rows(tile_src.data(), tile_idx.data() + tile_pos,
                          kTileRows, kTileCols, tile_dst.data());
          tile_pos = (tile_pos + kTileRows) % tile_idx.size();
          return tile_dst.data();
        });
  }
  for (const IndexRow& row : index_rows) {
    std::printf("  %-18s scalar %6.2f / avx2 %6.2f GB/s\n", row.name,
                row.gb_per_s[0], row.gb_per_s[1]);
  }

  // Gate nonlinearities over the same element count, on pre-activations in
  // the range the GRU gates see. Each rep refills the buffer untimed, so
  // every timing applies the kernel to the same inputs.
  Tensor gate_src = random_tensor(idx_rows, idx_cols, 33);
  for (int i = 0; i < gate_src.size(); ++i) {
    gate_src[static_cast<std::size_t>(i)] *= 6.0f;
  }
  const auto gate_n = static_cast<std::size_t>(gate_src.size());
  auto time_gate = [&](void (*fn)(float*, std::size_t)) {
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      std::memcpy(dst.data(), gate_src.data(), gate_n * sizeof(float));
      const double t0 = thread_cpu_s();
      fn(dst.data(), gate_n);
      times.push_back(thread_cpu_s() - t0);
    }
    return bytes / 1e9 / median(std::move(times));
  };
  IndexRow gate_rows[] = {{"sigmoid"}, {"tanh"}};
  std::vector<float> gate_ref[2];
  for (int bi = 0; bi < kNumBackends; ++bi) {
    if (!kern::backend_available(kBackends[bi])) continue;
    const kern::Ops& ops = kern::ops(kBackends[bi]);
    void (*const fns[2])(float*, std::size_t) = {ops.sigmoid_inplace,
                                                 ops.tanh_inplace};
    for (int g = 0; g < 2; ++g) {
      gate_rows[g].gb_per_s[bi] = time_gate(fns[g]);
      std::vector<float> out(gate_src.data(), gate_src.data() + gate_n);
      fns[g](out.data(), gate_n);
      if (kBackends[bi] == kern::Backend::kScalar) {
        gate_ref[g] = std::move(out);
      } else if (std::memcmp(out.data(), gate_ref[g].data(),
                             gate_n * sizeof(float)) != 0) {
        std::printf("WARNING: %s %s diverges bitwise from scalar\n",
                    kern::backend_name(kBackends[bi]), gate_rows[g].name);
        ++violations;
        bitwise = false;
      }
    }
  }
  for (const IndexRow& row : gate_rows) {
    std::printf("  %-18s scalar %6.2f / avx2 %6.2f GB/s\n", row.name,
                row.gb_per_s[0], row.gb_per_s[1]);
  }

  kern::set_kernel_backend(saved_backend);

  // --- BENCH_kernels.json -------------------------------------------------
  const std::string path = rn::bench::cache_dir() + "/BENCH_kernels.json";
  {
    std::ofstream out(path);
    if (out.good()) {
      out << "{\"bench\":\"kernels\",\"scale\":\""
          << rn::obs::json_escape(scale_name()) << "\""
          << ",\"active_backend\":\""
          << kern::backend_name(saved_backend) << "\"";
      out << ",\"matmul_shapes\":[";
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        const ShapeReport& shape = shapes[s];
        if (s > 0) out << ',';
        out << "{\"m\":" << shape.m << ",\"k\":" << shape.k
            << ",\"n\":" << shape.n;
        for (int bi = 0; bi < kNumBackends; ++bi) {
          if (shape.nn[bi] < 0.0) continue;
          const char* name = kern::backend_name(kBackends[bi]);
          out << ",\"" << name << "_nn_gflops\":"
              << rn::obs::json_number(shape.nn[bi]) << ",\"" << name
              << "_tn_gflops\":" << rn::obs::json_number(shape.tn[bi])
              << ",\"" << name << "_tn_wgrad_gflops\":"
              << rn::obs::json_number(shape.tn_wgrad[bi]) << ",\"" << name
              << "_nt_gflops\":" << rn::obs::json_number(shape.nt[bi]);
        }
        if (shape.nn_speedup.median > 0.0) {
          out << ",\"avx2_nn_speedup\":"
              << rn::obs::json_number(shape.nn_speedup.median)
              << ",\"avx2_tn_wgrad_speedup\":"
              << rn::obs::json_number(shape.tn_wgrad_speedup.median)
              << ",\"avx2_nt_speedup\":"
              << rn::obs::json_number(shape.nt_speedup.median);
        }
        out << "}";
      }
      out << "]";
      out << ",\"bitwise_identical\":" << (bitwise ? "true" : "false");
      // {backend}_{op}_gb_per_s for every available backend.
      auto write_rows = [&](const char* section, const auto& rows) {
        out << ",\"" << section << "\":{";
        bool first = true;
        for (const IndexRow& row : rows) {
          for (int bi = 0; bi < kNumBackends; ++bi) {
            if (row.gb_per_s[bi] < 0.0) continue;
            if (!first) out << ',';
            first = false;
            out << "\"" << kern::backend_name(kBackends[bi]) << "_"
                << row.name << "_gb_per_s\":"
                << rn::obs::json_number(row.gb_per_s[bi]);
          }
        }
        out << "}";
      };
      write_rows("index_ops", index_rows);
      write_rows("gate_ops", gate_rows);
      out << ",\"gru_step\":{\"rows\":" << rows
          << ",\"composed_s\":" << rn::obs::json_number(composed_s)
          << ",\"fused_s\":" << rn::obs::json_number(fused_s)
          << ",\"fused_speedup\":" << rn::obs::json_number(gru_speedup)
          << ",\"bitwise_identical\":" << (gru_bitwise ? "true" : "false")
          << "}";
      out << ",\"telemetry\":"
          << rn::obs::Registry::global().snapshot().to_json() << "}\n";
    }
  }
  std::printf("report -> %s\n", path.c_str());

  if (violations > 0) {
    if (enforce) {
      std::printf(
          "RN_BENCH_ENFORCE set: failing on %d backend violation(s)\n",
          violations);
      return violations;
    }
    std::printf("(%d backend violation(s); not enforced)\n", violations);
  }
  return 0;
}

}  // namespace

int main() {
  int rc = check_blocked_vs_naive();
  rc += run_backend_report();
  return rc != 0 ? 1 : 0;
}
