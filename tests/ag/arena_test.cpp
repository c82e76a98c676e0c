// Workspace-arena contract tests: warm loops allocate nothing fresh,
// pooled (dirty) memory is re-zeroed by the zero ctor, trim drops the
// free lists (so does a thread's exit), disabled mode still behaves, and
// buffers may be freed from threads other than the one that allocated
// them.
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ag/arena.h"
#include "ag/tensor.h"

namespace {

using rn::ag::Tensor;

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = rn::ag::arena_enabled();
    rn::ag::set_arena_enabled(true);
  }
  void TearDown() override { rn::ag::set_arena_enabled(was_enabled_); }
  bool was_enabled_ = true;
};

TEST_F(ArenaTest, WarmLoopPerformsZeroFreshAllocations) {
  // Warm-up: tour every shape the loop will use so the free lists hold a
  // buffer for each size class.
  auto loop_body = [] {
    Tensor a(12, 32);
    Tensor b(32, 32);
    a.fill(1.0f);
    b.fill(2.0f);
    Tensor c = rn::ag::matmul(a, b);
    Tensor d = std::move(c);
    Tensor e(3, 5, 0.25f);
    (void)d;
    (void)e;
  };
  for (int i = 0; i < 3; ++i) loop_body();

  const std::uint64_t fresh_before = rn::ag::tensor_fresh_allocs();
  const std::uint64_t reuses_before = rn::ag::arena_stats().reuses;
  for (int i = 0; i < 100; ++i) loop_body();
  EXPECT_EQ(rn::ag::tensor_fresh_allocs(), fresh_before)
      << "steady-state loop allocated fresh tensor storage";
  EXPECT_GT(rn::ag::arena_stats().reuses, reuses_before);
}

TEST_F(ArenaTest, PooledBufferIsReZeroedByZeroConstructor) {
  // Dirty a buffer, return it to the pool, take it back through the
  // zeroing ctor: every element must be 0 (pooled memory is NOT fresh).
  for (int round = 0; round < 4; ++round) {
    {
      Tensor dirty(9, 17);
      dirty.fill(31337.0f);
    }
    Tensor clean(9, 17);
    for (int i = 0; i < clean.size(); ++i) {
      ASSERT_EQ(clean[static_cast<std::size_t>(i)], 0.0f)
          << "round " << round << " element " << i;
    }
  }
}

TEST_F(ArenaTest, FillConstructorHonorsPooledMemoryToo) {
  {
    Tensor dirty(4, 4);
    dirty.fill(-1.0f);
  }
  Tensor filled(4, 4, 2.5f);
  for (int i = 0; i < filled.size(); ++i) {
    EXPECT_EQ(filled[static_cast<std::size_t>(i)], 2.5f);
  }
}

TEST_F(ArenaTest, TrimReleasesFreeListedBytes) {
  {
    std::vector<Tensor> hoard;
    for (int i = 0; i < 16; ++i) hoard.emplace_back(64, 64);
  }  // all returned to this thread's free lists
  const std::uint64_t held_before = rn::ag::arena_stats().bytes_held;
  EXPECT_GT(held_before, 0u);
  rn::ag::arena_trim();
  EXPECT_LT(rn::ag::arena_stats().bytes_held, held_before);
}

// A thread's pool dies with the thread; the buffers on its free lists must
// leave the process-wide bytes_held gauge with it, as trim() does.
TEST_F(ArenaTest, ThreadExitReleasesItsFreeListedBytes) {
  const std::uint64_t held_before = rn::ag::arena_stats().bytes_held;
  std::thread warm([held_before] {
    for (int cols : {8, 100, 300, 1000}) {
      Tensor t(4, cols);
      (void)t;
    }  // each size class returns to this thread's free lists
    EXPECT_GT(rn::ag::arena_stats().bytes_held, held_before);
  });
  warm.join();
  EXPECT_EQ(rn::ag::arena_stats().bytes_held, held_before);
}

TEST_F(ArenaTest, DisabledModeAllocatesFreshEveryTime) {
  rn::ag::set_arena_enabled(false);
  Tensor warm(6, 6);  // shape seen while disabled
  (void)warm;
  const std::uint64_t before = rn::ag::tensor_fresh_allocs();
  for (int i = 0; i < 8; ++i) {
    Tensor t(6, 6);
    t.fill(1.0f);
    EXPECT_EQ(t.at(0, 0), 1.0f);
  }
  EXPECT_GE(rn::ag::tensor_fresh_allocs(), before + 8);
}

TEST_F(ArenaTest, OversizedAllocationsBypassPoolSafely) {
  // Beyond the largest size class: plain heap, works and dies cleanly.
  Tensor big(1, 1 << 22);
  big.fill(3.0f);
  EXPECT_EQ(big.at(0, big.cols() - 1), 3.0f);
}

// Tensors may be created on one thread and destroyed on another (tape
// values crossing the pool, server batches). The origin arena takes the
// return under its mutex; nothing may race or leak under TSan.
TEST_F(ArenaTest, CrossThreadFreeIsSafeUnderContention) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<Tensor>> made(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&made, t] {
        for (int i = 0; i < 8; ++i) {
          Tensor x(7, 9, static_cast<float>(t));
          made[static_cast<std::size_t>(t)].push_back(std::move(x));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (auto& batch : made) {
      for (Tensor& t : batch) {
        ASSERT_EQ(t.rows(), 7);
        ASSERT_EQ(t.cols(), 9);
      }
    }
    // All tensors destroyed here, on the main thread — every buffer
    // returns cross-thread to its origin core.
  }
  EXPECT_GT(rn::ag::arena_stats().returns, 0u);
}

TEST_F(ArenaTest, BufferSurvivesOriginThreadDeath) {
  Tensor escaped;
  std::thread t([&escaped] { escaped = Tensor(11, 13, 4.0f); });
  t.join();
  // The origin thread is gone; the buffer (and its core) must still be
  // valid, and destruction must not touch freed memory.
  EXPECT_EQ(escaped.at(10, 12), 4.0f);
  escaped = Tensor();
}

}  // namespace
