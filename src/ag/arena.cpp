#include "ag/arena.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace rn::ag {

namespace {

// Process-wide counters: cheap relaxed atomics so the hot path never
// synchronizes beyond its own arena's mutex.
std::atomic<std::uint64_t> g_fresh_allocs{0};
std::atomic<std::uint64_t> g_reuses{0};
std::atomic<std::uint64_t> g_returns{0};
std::atomic<std::uint64_t> g_bytes_held{0};

std::atomic<bool> g_arena_enabled{true};

bool read_arena_env() {
  const char* env = std::getenv("RN_ARENA");
  return env == nullptr || env[0] == '\0' ||
         !(env[0] == '0' && env[1] == '\0');
}

bool arena_enabled_impl() {
  static const bool from_env = read_arena_env();
  static std::atomic<bool> initialized{false};
  if (!initialized.exchange(true, std::memory_order_relaxed)) {
    g_arena_enabled.store(from_env, std::memory_order_relaxed);
  }
  return g_arena_enabled.load(std::memory_order_relaxed);
}

// Buffers are size-classed by power of two, floor 64 floats (256 B): every
// acquisition for a given logical size hits the same class, so steady-state
// loops with fixed shapes reuse with zero misses, and close-but-unequal
// shapes (batch padding) still share storage.
constexpr std::size_t kMinClassFloats = 64;
constexpr int kNumClasses = 32;

int class_of(std::size_t n) {
  std::size_t cap = kMinClassFloats;
  int cls = 0;
  while (cap < n) {
    cap <<= 1;
    ++cls;
  }
  return cls;
}

std::size_t class_floats(int cls) { return kMinClassFloats << cls; }

}  // namespace

namespace detail {

// One thread's pool. Shared-ptr-held by the thread_local handle and by
// every outstanding Buffer, so it outlives both the thread and any tensor
// that escaped it.
struct ArenaCore {
  std::mutex mu;
  std::vector<float*> free_lists[kNumClasses];

  // Frees the free lists through trim() so a dying thread's pool leaves
  // the process-wide bytes_held gauge, too.
  ~ArenaCore() { trim(); }

  float* acquire(int cls) {
    {
      std::lock_guard<std::mutex> lock(mu);
      std::vector<float*>& list = free_lists[cls];
      if (!list.empty()) {
        float* p = list.back();
        list.pop_back();
        g_reuses.fetch_add(1, std::memory_order_relaxed);
        g_bytes_held.fetch_sub(class_floats(cls) * sizeof(float),
                               std::memory_order_relaxed);
        return p;
      }
    }
    g_fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    return new float[class_floats(cls)];
  }

  void put_back(float* p, int cls) {
    g_returns.fetch_add(1, std::memory_order_relaxed);
    g_bytes_held.fetch_add(class_floats(cls) * sizeof(float),
                           std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    free_lists[cls].push_back(p);
  }

  void trim() {
    std::lock_guard<std::mutex> lock(mu);
    for (int cls = 0; cls < kNumClasses; ++cls) {
      std::vector<float*>& list = free_lists[cls];
      g_bytes_held.fetch_sub(
          list.size() * class_floats(cls) * sizeof(float),
          std::memory_order_relaxed);
      for (float* p : list) delete[] p;
      list.clear();
      list.shrink_to_fit();
    }
  }
};

namespace {

const std::shared_ptr<ArenaCore>& thread_core() {
  thread_local std::shared_ptr<ArenaCore> core =
      std::make_shared<ArenaCore>();
  return core;
}

}  // namespace

Buffer::Buffer(std::size_t n) {
  if (n == 0) return;
  const int cls = class_of(n);
  if (cls >= kNumClasses) {
    // Beyond the largest size class (absurdly big): plain heap, exact size.
    g_fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    ptr_ = new float[n];
    cap_ = n;
    return;
  }
  if (arena_enabled_impl()) {
    core_ = thread_core();
    ptr_ = core_->acquire(cls);
  } else {
    g_fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    ptr_ = new float[class_floats(cls)];
  }
  cap_ = class_floats(cls);
}

void Buffer::release() {
  if (ptr_ == nullptr) return;
  if (core_ != nullptr) {
    core_->put_back(ptr_, class_of(cap_));
    core_.reset();
  } else {
    delete[] ptr_;
  }
  ptr_ = nullptr;
  cap_ = 0;
}

}  // namespace detail

ArenaStats arena_stats() {
  ArenaStats s;
  s.fresh_allocs = g_fresh_allocs.load(std::memory_order_relaxed);
  s.reuses = g_reuses.load(std::memory_order_relaxed);
  s.returns = g_returns.load(std::memory_order_relaxed);
  s.bytes_held = g_bytes_held.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t tensor_fresh_allocs() {
  return g_fresh_allocs.load(std::memory_order_relaxed);
}

void arena_trim() { detail::thread_core()->trim(); }

bool arena_enabled() { return arena_enabled_impl(); }

void set_arena_enabled(bool enabled) {
  arena_enabled_impl();  // latch the env read first
  g_arena_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace rn::ag
