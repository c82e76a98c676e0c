#include "ag/tensor.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>

#include "ag/kernels.h"
#include "par/thread_pool.h"

namespace rn::ag {

Tensor::Tensor(int rows, int cols, NoFill)
    : rows_(rows), cols_(cols),
      buf_(static_cast<std::size_t>(rows) * cols) {
  RN_CHECK(rows >= 0 && cols >= 0, "negative tensor dimension");
}

Tensor::Tensor(int rows, int cols) : Tensor(rows, cols, NoFill{}) {
  // Pooled buffers come back dirty; the zero-filled contract stands. An
  // empty tensor has no buffer, and memset must not see its null pointer.
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  if (n != 0) std::memset(buf_.data(), 0, n * sizeof(float));
}

Tensor Tensor::uninitialized(int rows, int cols) {
  return Tensor(rows, cols, NoFill{});
}

Tensor::Tensor(int rows, int cols, float fill)
    : rows_(rows), cols_(cols),
      buf_(static_cast<std::size_t>(rows) * cols) {
  RN_CHECK(rows >= 0 && cols >= 0, "negative tensor dimension");
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  float* p = buf_.data();
  std::fill(p, p + n, fill);
}

Tensor::Tensor(const Tensor& other)
    : rows_(other.rows_), cols_(other.cols_),
      buf_(static_cast<std::size_t>(other.rows_) * other.cols_) {
  const std::size_t n = static_cast<std::size_t>(rows_) * cols_;
  if (n != 0) std::memcpy(buf_.data(), other.buf_.data(), n * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  const std::size_t n = static_cast<std::size_t>(other.rows_) * other.cols_;
  if (buf_.capacity() < n) buf_ = detail::Buffer(n);
  rows_ = other.rows_;
  cols_ = other.cols_;
  if (n != 0) std::memcpy(buf_.data(), other.buf_.data(), n * sizeof(float));
  return *this;
}

Tensor Tensor::from_rows(
    std::initializer_list<std::initializer_list<float>> rows) {
  const int r = static_cast<int>(rows.size());
  RN_CHECK(r > 0, "from_rows needs at least one row");
  const int c = static_cast<int>(rows.begin()->size());
  Tensor t(r, c);
  int i = 0;
  for (const auto& row : rows) {
    RN_CHECK(static_cast<int>(row.size()) == c, "ragged from_rows literal");
    int j = 0;
    for (float v : row) t.at(i, j++) = v;
    ++i;
  }
  return t;
}

Tensor Tensor::column(const std::vector<float>& values) {
  Tensor t(static_cast<int>(values.size()), 1);
  for (std::size_t i = 0; i < values.size(); ++i) t[i] = values[i];
  return t;
}

void Tensor::fill(float v) {
  float* p = buf_.data();
  std::fill(p, p + static_cast<std::size_t>(size()), v);
}

void Tensor::add_scaled(const Tensor& other, float s) {
  RN_CHECK(same_shape(other), "add_scaled shape mismatch");
  kern::active().axpy(buf_.data(), other.buf_.data(),
                      s, static_cast<std::size_t>(size()));
}

void Tensor::scale(float s) {
  float* p = buf_.data();
  const std::size_t n = static_cast<std::size_t>(size());
  for (std::size_t i = 0; i < n; ++i) p[i] *= s;
}

double Tensor::squared_norm() const {
  const float* p = buf_.data();
  const std::size_t n = static_cast<std::size_t>(size());
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(p[i]) * p[i];
  }
  return acc;
}

namespace {

std::atomic<long long> g_parallel_macs{1LL << 18};

}  // namespace

// The grain is shape-aware: wide-but-short operands (k·n per row large)
// split fine, while tall-skinny ones (the paper shapes — thousands of rows,
// 16–64 state dims) coarsen so each chunk still carries at least a
// threshold's worth of multiply-adds. Capping chunk count at the pool width
// stops the old failure mode where 4096 rows fanned out as 128 tile-sized
// tasks whose enqueue/steal overhead outweighed the 2-thread speedup.
void parallel_rows(int rows, long long macs,
                   const std::function<void(int, int)>& body) {
  const long long threshold = g_parallel_macs.load(std::memory_order_relaxed);
  const int threads = par::global_threads();
  if (macs < threshold || threads <= 1 || rows <= 0) {
    body(0, rows);
    return;
  }
  const long long macs_per_row = std::max(1LL, macs / rows);
  const long long rows_per_threshold =
      (threshold + macs_per_row - 1) / macs_per_row;
  const long long rows_per_thread = (rows + threads - 1) / threads;
  long long grain = std::max<long long>(
      {kern::kTileRows, rows_per_threshold, rows_per_thread});
  grain = (grain + kern::kTileRows - 1) / kern::kTileRows * kern::kTileRows;
  par::parallel_for(0, rows, grain,
                    [&body](std::int64_t lo, std::int64_t hi) {
                      body(static_cast<int>(lo), static_cast<int>(hi));
                    });
}

long long matmul_parallel_threshold() {
  return g_parallel_macs.load(std::memory_order_relaxed);
}

void set_matmul_parallel_threshold(long long macs) {
  g_parallel_macs.store(std::max(0LL, macs), std::memory_order_relaxed);
}

void matmul_into(const Tensor& a, const Tensor& b, float* c) {
  RN_CHECK(a.cols() == b.rows(), "matmul inner-dimension mismatch");
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const kern::Ops& ops = kern::active();
  parallel_rows(m, static_cast<long long>(m) * k * n, [&](int r0, int r1) {
    ops.matmul_block(a.data(), b.data(), c, r0, r1, k, n);
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  matmul_into(a, b, c.data());
  return c;
}

Tensor matmul_tn(const Tensor& a, const float* b, int b_cols) {
  Tensor c(a.cols(), b_cols);
  const int m = a.cols(), k = a.rows(), n = b_cols;
  const kern::Ops& ops = kern::active();
  parallel_rows(m, static_cast<long long>(m) * k * n, [&](int r0, int r1) {
    ops.matmul_tn_block(a.data(), b, c.data(), r0, r1, m, k, n);
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  RN_CHECK(a.rows() == b.rows(), "matmul_tn dimension mismatch");
  return matmul_tn(a, b.data(), b.cols());
}

void matmul_nt_into(const float* a, int a_rows, const Tensor& b, float* c) {
  const int m = a_rows, k = b.cols(), n = b.rows();
  const kern::Ops& ops = kern::active();
  parallel_rows(m, static_cast<long long>(m) * k * n, [&](int r0, int r1) {
    ops.matmul_nt_block(a, b.data(), c, r0, r1, k, n);
  });
}

Tensor matmul_nt(const float* a, int a_rows, const Tensor& b) {
  Tensor c(a_rows, b.rows());
  matmul_nt_into(a, a_rows, b, c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  RN_CHECK(a.cols() == b.cols(), "matmul_nt dimension mismatch");
  return matmul_nt(a.data(), a.rows(), b);
}

}  // namespace rn::ag
