// Unit tests for the deterministic fork-join pool and ParallelFor
// (ctest label: parallel). The contract under test is DESIGN.md §9:
// index i writes only its own slot, so every result is independent of
// thread count and scheduling, including the pool-free serial path.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharding_system.h"
#include "parallel/parallel.h"
#include "parallel/thread_pool.h"

namespace shardchain {
namespace {

// Thread counts every equivalence assertion sweeps: serial, even,
// odd, prime, and more-threads-than-chunks shapes.
const size_t kThreadCounts[] = {1, 2, 3, 4, 7, 8};

// One thread is the default: a system built from a default config
// spawns no pool, whatever the host's core count.
TEST(ParallelConfigTest, DefaultShardingSystemHasNoPool) {
  EXPECT_EQ(ShardingSystemConfig{}.parallel.threads, 1u);
  ShardingSystem system(ShardingSystemConfig{}, /*seed=*/1);
  EXPECT_EQ(system.pool(), nullptr);
  ShardingSystemConfig four;
  four.parallel.threads = 4;
  ShardingSystem pooled(four, /*seed=*/1);
  ASSERT_NE(pooled.pool(), nullptr);
  EXPECT_EQ(pooled.pool()->thread_count(), 4u);
}

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<int> hits(1000, 0);
    pool.Run(hits.size(), [&](size_t c) { ++hits[c]; });
    for (size_t c = 0; c < hits.size(); ++c) {
      ASSERT_EQ(hits[c], 1) << "chunk " << c << " at " << threads
                            << " threads";
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.Run(17, [&](size_t c) { total += c; });
  }
  EXPECT_EQ(total.load(), 50u * (16 * 17 / 2));
}

TEST(ParallelForTest, ThreadsOneMatchesPoolFreePathBitwise) {
  // A ThreadPool(1) and no pool at all must walk the identical indices
  // in the identical order: same doubles, bit for bit.
  const size_t n = 10'007;
  std::vector<double> serial(n), pooled(n);
  auto body = [](size_t i) {
    return std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (1.0 + i);
  };
  ParallelFor(nullptr, n, [&](size_t i) { serial[i] = body(i); });
  ThreadPool one(1);
  ParallelFor(&one, n, [&](size_t i) { pooled[i] = body(i); });
  EXPECT_EQ(serial, pooled);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](size_t i) {
                    if (i == 37) throw std::runtime_error("index 37");
                  }),
      std::runtime_error);
  // The failed region must drain fully: the pool stays usable.
  std::atomic<int> ran{0};
  ParallelFor(&pool, 64, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForSerializesInline) {
  // An inner region launched from inside a task must not deadlock and
  // must produce the same values as a serial inner loop.
  ThreadPool pool(4);
  const size_t outer = 8, inner = 32;
  std::vector<std::vector<uint64_t>> got(outer);
  std::vector<uint8_t> was_nested(outer, 0);
  ParallelFor(&pool, outer, [&](size_t o) {
    was_nested[o] = ThreadPool::InParallelRegion() ? 1 : 0;
    got[o].assign(inner, 0);
    ParallelFor(&pool, inner, [&](size_t i) { got[o][i] = o * 1000 + i; });
  });
  for (size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(was_nested[o], 1) << "outer index " << o;
    for (size_t i = 0; i < inner; ++i) {
      ASSERT_EQ(got[o][i], o * 1000 + i);
    }
  }
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ParallelForTest, EmptyAndSingleElementRanges) {
  ThreadPool pool(3);
  int hits = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  ParallelFor(&pool, 1, [&](size_t) { ++hits; });
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace shardchain
