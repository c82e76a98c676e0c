#include "par/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rn::par {

namespace {

thread_local bool t_on_worker = false;

struct PoolMetrics {
  obs::Counter& tasks = obs::Registry::global().counter("par.tasks_total");
  obs::Counter& loops =
      obs::Registry::global().counter("par.parallel_for_total");
  obs::Gauge& threads = obs::Registry::global().gauge("par.pool.threads");
  obs::Histogram& task_s = obs::Registry::global().histogram("par.task_s");
};

PoolMetrics& metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  metrics().threads.set(static_cast<double>(size_));
  if (size_ == 1) return;  // inline pool: no workers, no queue
  workers_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::enqueue(std::function<void()> fn) {
  if (workers_.empty()) {
    // 1-thread pool: run on the caller; the future still carries the result.
    obs::ScopedTimer timer(metrics().task_s);
    metrics().tasks.add(1);
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    RN_CHECK(!stop_, "submit on a stopped ThreadPool");
    queue_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    obs::ScopedTimer timer(metrics().task_s);
    metrics().tasks.add(1);
    task();
  }
}

namespace {

int env_threads() {
  const char* env = std::getenv("RN_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const int n = std::atoi(env);
  return n > 0 ? n : 0;
}

std::shared_ptr<ThreadPool>& pool_slot() {
  static std::shared_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& pool_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

int default_threads() {
  const int env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_global_threads(int threads) {
  const int n = threads > 0 ? threads : default_threads();
  std::shared_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(pool_mu());
    std::shared_ptr<ThreadPool>& pool = pool_slot();
    if (pool != nullptr && pool->size() == n) return;
    old = std::move(pool);
    pool = std::make_shared<ThreadPool>(n);
  }
  // `old` drops here, outside pool_mu: if this is the last reference the
  // destructor joins the old workers, and a worker blocked in
  // global_pool() must be able to take the lock for that join to finish.
}

int global_threads() { return global_pool()->size(); }

std::shared_ptr<ThreadPool> global_pool() {
  std::lock_guard<std::mutex> lock(pool_mu());
  std::shared_ptr<ThreadPool>& pool = pool_slot();
  if (pool == nullptr) pool = std::make_shared<ThreadPool>(default_threads());
  return pool;
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>&
                      body) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t range = end - begin;
  // The shared_ptr copy keeps this pool alive even if another thread
  // rebuilds the global slot (set_global_threads) while chunks are
  // in flight.
  const std::shared_ptr<ThreadPool> pool = global_pool();
  // Chunk spans nest under whatever span the caller has open, whichever
  // thread ends up running them (captured once, passed explicitly).
  const std::uint64_t trace_parent = obs::trace_current_span();
  // Inline when parallelism cannot help (or would deadlock: a worker
  // waiting on futures served by its own queue).
  if (range <= grain || pool->size() <= 1 || ThreadPool::on_worker_thread()) {
    obs::TraceSpan span("par.chunk", trace_parent);
    span.arg("lo", begin);
    body(begin, end);
    return;
  }
  metrics().loops.add(1);
  // Cap the chunk count at ~4 per worker so task overhead stays bounded
  // while the tail still load-balances; round the chunk size up to a grain
  // multiple so boundaries stay aligned to the caller's tiles.
  const std::int64_t max_chunks =
      static_cast<std::int64_t>(pool->size()) * 4;
  std::int64_t per_chunk =
      std::max(grain, (range + max_chunks - 1) / max_chunks);
  per_chunk = (per_chunk + grain - 1) / grain * grain;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(range / per_chunk));
  // The caller runs the first chunk itself; workers take the rest.
  const std::int64_t first_hi = std::min(end, begin + per_chunk);
  for (std::int64_t chunk_lo = first_hi; chunk_lo < end;
       chunk_lo += per_chunk) {
    const std::int64_t chunk_hi = std::min(end, chunk_lo + per_chunk);
    futures.push_back(
        pool->submit([&body, chunk_lo, chunk_hi, trace_parent] {
          obs::TraceSpan span("par.chunk", trace_parent);
          span.arg("lo", chunk_lo);
          body(chunk_lo, chunk_hi);
        }));
  }
  // Every future is drained even when a chunk throws: queued tasks hold
  // &body — a reference into the caller's frame — so returning (and
  // unwinding) before they all finish would be a use-after-free. The
  // first exception wins; later ones are swallowed.
  std::exception_ptr error;
  try {
    obs::TraceSpan span("par.chunk", trace_parent);
    span.arg("lo", begin);
    body(begin, first_hi);
  } catch (...) {
    error = std::current_exception();
  }
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (error == nullptr) error = std::current_exception();
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace rn::par
