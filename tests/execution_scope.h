// Scoped kernel backend, pool width and matmul threshold for the bitwise
// contract tests that compare backends and thread counts.
#pragma once

#include "ag/kernels.h"
#include "ag/tensor.h"
#include "par/thread_pool.h"

namespace rn::testing {

// Selects a backend and pool width, and restores the previous backend,
// pool width and matmul threshold on exit.
class ExecutionScope {
 public:
  ExecutionScope(ag::kern::Backend backend, int threads)
      : saved_backend_(ag::kern::set_kernel_backend(backend)),
        saved_threads_(par::global_threads()),
        saved_threshold_(ag::matmul_parallel_threshold()) {
    par::set_global_threads(threads);
    // At more than one thread, force even small matmuls onto the pool.
    if (threads > 1) ag::set_matmul_parallel_threshold(0);
  }
  ~ExecutionScope() {
    ag::kern::set_kernel_backend(saved_backend_);
    par::set_global_threads(saved_threads_);
    ag::set_matmul_parallel_threshold(saved_threshold_);
  }
  ExecutionScope(const ExecutionScope&) = delete;
  ExecutionScope& operator=(const ExecutionScope&) = delete;

 private:
  ag::kern::Backend saved_backend_;
  int saved_threads_;
  long long saved_threshold_;
};

}  // namespace rn::testing
