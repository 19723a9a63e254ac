// Unit tests for the thread pool and parallel_for.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

// Every global operator new in this binary counts itself, so the queued-
// memory test below can hold parallel_fixed_chunks to a count.
namespace {
std::atomic<std::size_t> heap_allocations{0};
}  // namespace

// Out of line, so GCC does not pair the malloc() and free() it would see.
[[gnu::noinline]] void* operator new(std::size_t size) {
  heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using wdag::util::parallel_for;
using wdag::util::parallel_for_chunks;
using wdag::util::ThreadPool;

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, SumMatchesSerial) {
  constexpr std::size_t n = 5000;
  std::atomic<long long> sum{0};
  parallel_for(0, n, [&](std::size_t i) { sum.fetch_add(static_cast<long long>(i)); });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 1000,
                   [&](std::size_t i) {
                     if (i == 517) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelForChunksTest, ChunksPartitionTheRange) {
  constexpr std::size_t n = 1234;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForChunksTest, GrainLimitsChunkCount) {
  std::atomic<int> chunks{0};
  parallel_for_chunks(
      0, 100,
      [&](std::size_t, std::size_t) { chunks.fetch_add(1); },
      /*grain=*/100);
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ParallelFixedChunksTest, PartitionDependsOnlyOnChunkSize) {
  // The fixed partition is the determinism anchor of the batch engine: a
  // chunk index must cover the same index range on a 1-thread and an
  // 8-thread pool.
  auto partition_of = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(4);
    wdag::util::parallel_fixed_chunks(
        pool, 0, 10, 3,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          ranges[chunk] = {lo, hi};
        });
    return ranges;
  };
  const auto one = partition_of(1);
  const auto eight = partition_of(8);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(one[3], (std::pair<std::size_t, std::size_t>{9, 10}));
}

TEST(ParallelFixedChunksTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  wdag::util::parallel_fixed_chunks(
      pool, 0, 257, 16, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFixedChunksTest, RethrowsFirstChunkError) {
  ThreadPool pool(2);
  EXPECT_THROW(wdag::util::parallel_fixed_chunks(
                   pool, 0, 8, 2,
                   [](std::size_t chunk, std::size_t, std::size_t) {
                     if (chunk == 1) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool is still usable after the failed loop.
  std::atomic<int> ok{0};
  wdag::util::parallel_fixed_chunks(
      pool, 0, 4, 1,
      [&](std::size_t, std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ParallelFixedChunksTest, EmptyRangeAndBadChunkSize) {
  ThreadPool pool(2);
  int calls = 0;
  wdag::util::parallel_fixed_chunks(
      pool, 5, 5, 4,
      [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(wdag::util::parallel_fixed_chunks(
                   pool, 0, 4, 0,
                   [](std::size_t, std::size_t, std::size_t) {}),
               wdag::InvalidArgument);
}

TEST(ParallelFixedChunksTest, QueuedMemoryDoesNotGrowWithTheChunkCount) {
  // At most one task per worker pulls chunk ordinals from a shared
  // counter, so a call queues the same few tasks whatever its chunk
  // count. The pool's queue allocates a node only every few submissions,
  // so compare the fewest allocations over repeated calls.
  ThreadPool pool(4);
  const auto fewest_allocations = [&pool](std::size_t chunks) {
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (int rep = 0; rep < 8; ++rep) {
      std::atomic<std::size_t> covered{0};
      const std::size_t before = heap_allocations.load();
      wdag::util::parallel_fixed_chunks(
          pool, 0, chunks, 1,
          [&covered](std::size_t, std::size_t, std::size_t) { ++covered; });
      fewest = std::min(fewest, heap_allocations.load() - before);
      EXPECT_EQ(covered.load(), chunks);
    }
    return fewest;
  };
  EXPECT_LE(fewest_allocations(100'000), fewest_allocations(100));
}

TEST(ThreadPoolTest, ForEachWorkerRunsExactlyOncePerWorker) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::size_t> seen;
  pool.for_each_worker([&](std::size_t worker) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.push_back(worker);
  });
  // One visit per worker, each with a distinct index 0..3 — the property
  // the NUMA first-touch hook relies on (api::Engine warms per-worker
  // arenas through this).
  ASSERT_EQ(seen.size(), 4u);
  std::sort(seen.begin(), seen.end());
  for (std::size_t w = 0; w < seen.size(); ++w) EXPECT_EQ(seen[w], w);
}

TEST(ThreadPoolTest, ForEachWorkerPropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each_worker([](std::size_t worker) {
                 if (worker == 0) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool survives: later work still runs.
  std::atomic<int> ran{0};
  pool.for_each_worker([&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelForTest, NestedParallelismDoesNotDeadlock) {
  // Inner calls run on the same global pool; the implementation must not
  // block a worker waiting for tasks that need that worker.
  std::atomic<int> total{0};
  parallel_for_chunks(
      0, 4,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          total.fetch_add(static_cast<int>(i));
        }
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 0 + 1 + 2 + 3);
}

}  // namespace
