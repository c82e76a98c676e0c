// Parallel execution layer: a fixed-size thread pool with task futures and
// a blocked `parallel_for` helper, shared by dataset generation (one
// simulation per task) and the autodiff matmul kernels (row-range tasks).
//
// Thread count resolution, in priority order: an explicit
// `set_global_threads(n)` call (the CLI's `--threads` flag), the RN_THREADS
// environment variable, then `std::thread::hardware_concurrency()`.
//
// Determinism contract: `parallel_for` only partitions the index range —
// it never reorders work within a chunk, and callers are required to make
// chunks write disjoint outputs whose values do not depend on chunk
// boundaries. Under that contract every caller in this repo produces
// bitwise-identical results at any thread count (tested by
// par_determinism_test).
//
// Telemetry (see docs/performance.md): `par.pool.threads`,
// `par.tasks_total`, `par.parallel_for_total`, and the per-task busy-time histogram `par.task_s` whose sum over the run
// divided by (wall seconds x threads) is the pool utilization.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace rn::par {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1). A 1-thread pool never
  // spawns: submit/parallel_for run inline on the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  // Enqueues fn and returns a future for its result. Exceptions thrown by
  // fn surface from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  // True when the calling thread is a worker of *any* ThreadPool — used to
  // run nested parallel_for calls inline instead of deadlocking on a full
  // queue.
  static bool on_worker_thread();

 private:
  void enqueue(std::function<void()> fn);
  void worker_loop();

  int size_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Thread count the pool would use when none has been set explicitly:
// RN_THREADS if set and positive, else hardware_concurrency (>= 1).
int default_threads();

// Resolves `threads` (0 = auto via default_threads()) and rebuilds the
// global pool if the resolved count differs from the current one. Safe to
// call while pool work is in flight: the pool is held by shared_ptr, so an
// in-flight parallel_for keeps its (old) pool alive until its chunks
// finish; the old pool's workers are joined once the last holder drops it.
void set_global_threads(int threads);

// Current global pool width.
int global_threads();

// Returns the global pool, creating it at default_threads() on first use.
// Callers get a shared_ptr copy so a concurrent set_global_threads cannot
// destroy a pool still in use.
std::shared_ptr<ThreadPool> global_pool();

// Runs body over [begin, end) split into chunks of at least `grain`
// indices, rounded up so every chunk size (except the tail's) is a grain
// multiple. body(lo, hi) handles the half-open sub-range [lo, hi). Runs
// inline (one chunk) when the range is small, the pool has one thread, or
// the caller is already a pool worker. Always waits for every chunk, even
// when one throws — then rethrows the first chunk exception.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace rn::par
