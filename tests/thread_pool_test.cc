#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace wsd {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelForShardsTest, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelForShards(pool, 5, 5,
                    [&](size_t, size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  ParallelForShards(pool, 5, 6, [&](size_t shard, size_t lo, size_t hi) {
    EXPECT_EQ(shard, 0u);
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 6u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForShardsTest, ShardsPartitionTheRange) {
  ThreadPool pool(4);
  Mutex mu;
  std::vector<std::pair<size_t, size_t>> shards;
  ParallelForShards(pool, 10, 250,
                    [&](size_t /*shard*/, size_t lo, size_t hi) {
                      MutexLock lock(mu);
                      shards.emplace_back(lo, hi);
                    });
  std::sort(shards.begin(), shards.end());
  size_t expected_lo = 10;
  for (const auto& [lo, hi] : shards) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_GT(hi, lo);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 250u);
}

}  // namespace
}  // namespace wsd
