#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace {

using tt::index_t;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  tt::support::ThreadPool pool(3);
  const index_t n = 10000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(n, 4, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(ThreadPool, StealsWhenRangesAreImbalanced) {
  // Participant 0 stalls on its first iteration; the rest of its range must
  // be drained by stealing participants.
  tt::support::ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::thread::id> threads_seen;
  pool.parallel_for(4000, 4, [&](index_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::lock_guard<std::mutex> lock(mutex);
    threads_seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads_seen.size(), 2u);
}

TEST(ThreadPool, CallerParticipatesWithZeroWorkers) {
  tt::support::ThreadPool pool(0);
  std::atomic<index_t> sum{0};
  pool.parallel_for(100, 8, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ThreadPool, EmptyAndSingleIterationRunInline) {
  tt::support::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, 4, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, 4, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  tt::support::ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(1000, 4,
                                 [&](index_t i) {
                                   if (i == 137) throw tt::Error("boom");
                                 }),
               tt::Error);
  // Pool stays usable after an aborted loop.
  std::atomic<int> count{0};
  pool.parallel_for(64, 4, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedCallsRunInline) {
  tt::support::ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, 4, [&](index_t) {
    EXPECT_TRUE(tt::support::in_parallel_region());
    // Nested parallel_for must not deadlock; it degrades to inline execution.
    tt::support::parallel_for(4, [&](index_t) { inner_total.fetch_add(1); }, 4);
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(tt::support::in_parallel_region());
}

TEST(ThreadPool, ExecutionSlotIsZeroOutsideRegions) {
  EXPECT_FALSE(tt::support::in_parallel_region());
}

TEST(ThreadPool, SerialCapIsARegion) {
  // A loop capped at one thread is a region, so the kernels it reaches stay
  // serial ("1 = serial" all the way down); the flag clears afterwards, also
  // when the body throws.
  int calls = 0;
  tt::support::parallel_for(
      3,
      [&](index_t) {
        EXPECT_TRUE(tt::support::in_parallel_region());
        ++calls;
      },
      1);
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(tt::support::in_parallel_region());
  const auto boom = [](index_t) { throw tt::Error("boom"); };
  EXPECT_THROW(tt::support::parallel_for(2, boom, 1), tt::Error);
  EXPECT_FALSE(tt::support::in_parallel_region());

  // One iteration with more threads allowed is not a region: a single large
  // bin may still thread its kernels.
  bool region = true;
  tt::support::parallel_for(
      1, [&](index_t) { region = tt::support::in_parallel_region(); }, 4);
  EXPECT_FALSE(region);
}

TEST(ThreadPool, SetNumThreadsOverridesAndRestores) {
  const int base = tt::support::num_threads();
  EXPECT_GE(base, 1);
  tt::support::set_num_threads(5);
  EXPECT_EQ(tt::support::num_threads(), 5);
  tt::support::set_num_threads(0);
  EXPECT_EQ(tt::support::num_threads(), base);
}

TEST(ThreadPool, GlobalParallelForHonorsThreadCap) {
  // threads=1 must run strictly serially on the calling thread.
  std::set<std::thread::id> threads;
  tt::support::parallel_for(
      64, [&](index_t) { threads.insert(std::this_thread::get_id()); }, 1);
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());

  std::atomic<index_t> sum{0};
  tt::support::parallel_for(256, [&](index_t i) { sum += i; }, 8);
  EXPECT_EQ(sum.load(), 256 * 255 / 2);
}

}  // namespace
