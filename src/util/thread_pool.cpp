#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.hpp"

namespace wdag::util {

namespace {
/// Which worker of its owning pool the current thread is; -1 off-pool.
thread_local int tl_worker_index = -1;

/// CPUs requested by WDAG_AFFINITY (see the class comment): empty means
/// pinning is off; "on"/"1" expands to the identity list; otherwise a
/// comma-separated CPU id list. Malformed values disable pinning rather
/// than aborting the process.
std::vector<int> affinity_cpus() {
  const char* env = std::getenv("WDAG_AFFINITY");
  if (env == nullptr || *env == '\0') return {};
  const std::string value(env);
  if (value == "off" || value == "0") return {};
  std::vector<int> cpus;
  if (value == "on" || value == "1") {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < n; ++c) cpus.push_back(static_cast<int>(c));
    return cpus;
  }
  std::size_t pos = 0;
  while (pos < value.size()) {
    std::size_t used = 0;
    int cpu;
    try {
      cpu = std::stoi(value.substr(pos), &used);
    } catch (const std::exception&) {
      return {};
    }
    if (cpu < 0) return {};
    cpus.push_back(cpu);
    pos += used;
    if (pos < value.size()) {
      if (value[pos] != ',') return {};
      ++pos;
    }
  }
  return cpus;
}

/// Best-effort worker pinning; silently a no-op when unsupported or when
/// the CPU id is outside the process's allowed set.
void pin_thread(std::thread& thread, int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)cpu;
#endif
}
}  // namespace

int ThreadPool::current_worker_index() { return tl_worker_index; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  const std::vector<int> cpus = affinity_cpus();
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      tl_worker_index = static_cast<int>(i);
      worker_loop();
    });
    if (!cpus.empty()) pin_thread(workers_.back(), cpus[i % cpus.size()]);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    WDAG_REQUIRE(!stop_, "ThreadPool::submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::for_each_worker(const std::function<void(std::size_t)>& fn) {
  const std::size_t n = size();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::size_t done = 0;
  std::exception_ptr first_error;
  for (std::size_t t = 0; t < n; ++t) {
    submit([&, n] {
      // Barrier first: a worker holds its task at the barrier until all
      // n tasks have started. Since a worker runs one task at a time, n
      // simultaneously-parked tasks occupy n DISTINCT workers — only
      // then may fn run, guaranteeing exactly-once-per-worker placement.
      {
        std::unique_lock<std::mutex> lk(mu);
        ++arrived;
        if (arrived == n) cv.notify_all();
        cv.wait(lk, [&] { return arrived == n; });
      }
      try {
        fn(static_cast<std::size_t>(tl_worker_index));
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!first_error) first_error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        ++done;
        if (done == n) cv.notify_all();
      }
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done == n; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked
  return *pool;
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t grain) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t total = end - begin;
  ThreadPool& pool = global_pool();
  const std::size_t target_chunks =
      std::max<std::size_t>(1, std::min(total / grain, pool.size() * 4));
  const std::size_t chunk = (total + target_chunks - 1) / target_chunks;

  if (target_chunks == 1) {
    body(begin, end);
    return;
  }
  parallel_fixed_chunks(pool, begin, end, chunk,
                        [&body](std::size_t, std::size_t lo, std::size_t hi) {
                          body(lo, hi);
                        });
}

void parallel_fixed_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  WDAG_REQUIRE(chunk >= 1, "parallel_fixed_chunks: chunk must be >= 1");
  if (begin >= end) return;

  const std::size_t total = end - begin;
  // Overflow-proof ceil-div: `total + chunk - 1` wraps for huge chunk
  // values (e.g. a size_t-cast -1).
  const std::size_t chunks = total / chunk + (total % chunk != 0 ? 1 : 0);
  const std::size_t tasks = std::min(chunks, pool.size());

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t running = tasks;
  std::exception_ptr first_error;
  for (std::size_t t = 0; t < tasks; ++t) {
    pool.submit([&] {
      for (std::size_t c = next++; c < chunks; c = next++) {
        // c < chunks keeps c * chunk < total: no overflow.
        const std::size_t lo = begin + c * chunk;
        try {
          body(c, lo, lo + std::min(chunk, end - lo));
        } catch (...) {
          const std::lock_guard<std::mutex> lk(mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
      // Notify under the lock: the waiter cannot see zero and unwind
      // this frame while a worker still holds the mutex or the cv.
      const std::lock_guard<std::mutex> lk(mu);
      if (--running == 0) done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lk(mu);
  done_cv.wait(lk, [&] { return running == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

}  // namespace wdag::util
