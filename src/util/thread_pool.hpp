#pragma once
// Fixed-size thread pool plus a blocking parallel_for, used to fan out
// benchmark sweeps and the per-source UPP dynamic program.
//
// Design notes (per the HPC guides): parallelism is explicit and
// deterministic — work is partitioned by index range and all randomness
// is seeded by index, so results never depend on thread scheduling.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wdag::util {

/// A fixed pool of worker threads executing submitted tasks FIFO.
/// Threads are joined in the destructor; submitting after shutdown throws.
///
/// Worker pinning (Linux): when the WDAG_AFFINITY environment variable is
/// set, workers are pinned to CPUs at construction — "on" (or "1") pins
/// worker i to CPU i mod ncpu; a comma-separated CPU list ("0,2,4") pins
/// worker i to list[i mod len]. Unset, empty, "off" or "0" leaves the OS
/// scheduler free. Pinning is best-effort and a no-op off Linux; a
/// pinned worker keeps its SolveScratch arena hot in its own cache/node
/// (see for_each_worker and docs/ARCHITECTURE.md).
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Index of the calling thread within its owning pool (0..size()-1), or
  /// -1 when the caller is not a pool worker. Lets batch drivers map a
  /// worker to a caller-owned per-worker arena (see core/batch.cpp).
  [[nodiscard]] static int current_worker_index();

  /// Enqueue a task. Tasks must not throw through the pool; wrap and store
  /// exceptions yourself (parallel_for below does this for you).
  void submit(std::function<void()> task);

  /// Runs `fn(worker_index)` exactly once ON each worker thread, blocking
  /// until all have finished; the first exception is rethrown here. The
  /// per-worker placement is what makes this the NUMA first-touch hook:
  /// memory a worker allocates-and-touches inside `fn` lands on that
  /// worker's NUMA node under Linux's default first-touch policy, which
  /// combined with WDAG_AFFINITY pinning keeps a worker's arena local
  /// (api::Engine warms its SolveScratch arenas this way). Uses an
  /// internal barrier, so it must not run concurrently with other
  /// submitted work (intended for initialization, e.g. right after
  /// construction).
  void for_each_worker(const std::function<void(std::size_t)>& fn);

  /// Block until every submitted task has finished executing.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Shared process-wide pool (lazily constructed, never destroyed before
/// main exits). Use for ad-hoc parallel_for calls.
ThreadPool& global_pool();

/// Runs body(i) for i in [begin, end) across the pool, blocking until done.
/// Work is split into contiguous chunks (at most 4 per worker) to keep
/// per-chunk state (e.g. RNGs) cheap. The first exception thrown by any
/// chunk is rethrown in the calling thread.
///
/// `grain` caps how small a chunk may be; use it when body(i) is tiny.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Chunked variant: body(lo, hi) receives a contiguous index range.
/// Prefer this when per-chunk setup (RNG, scratch buffers) matters.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t grain = 1);

/// Deterministic-partition variant on a caller-owned pool: the range is
/// split into FIXED chunks of exactly `chunk` indices (the last may be
/// short), and body(chunk_index, lo, hi) runs once per chunk. Because the
/// partition depends only on `chunk` — never on the pool size — a
/// chunk_index always covers the same indices no matter how many workers
/// execute it, so index-seeded RNG streams stay reproducible across
/// machines (see core/batch.cpp).
///
/// At most pool.size() tasks are queued, whatever the chunk count: each
/// pulls the next chunk ordinal from one shared counter until none is
/// left, so an idle worker always takes the lowest unclaimed chunk and
/// ordinals are claimed in ascending order (the property the batch
/// engine's reorder window relies on). Blocks until every chunk
/// finishes; a throwing chunk does not stop the others, and the first
/// exception is rethrown.
void parallel_fixed_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace wdag::util
