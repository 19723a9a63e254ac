#include "core/batch.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "api/sink.hpp"
#include "api/strategy.hpp"
#include "conflict/coloring.hpp"
#include "core/cost_model.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wdag::core {

namespace {

/// Mixes the batch seed with an instance index into an independent RNG
/// stream. Keyed by instance (not chunk, not worker), so the stream — and
/// therefore every generated instance — is identical whatever the chunk
/// geometry or the worker that runs it.
util::Xoshiro256 instance_rng(std::uint64_t seed, std::size_t index) {
  util::SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return util::Xoshiro256(mix.next());
}

/// Solves one instance into its pre-allocated entry slot over the
/// built-in registry; never throws. One shared implementation with the
/// Engine path (api::solve_into_entry).
void solve_into(BatchEntry& entry, const paths::DipathFamily& family,
                const SolveOptions& solve_options, SolveScratch& scratch,
                bool keep_coloring) {
  api::solve_into_entry(entry, api::builtin_registry(), family,
                        solve_options, solve_options.force, scratch,
                        keep_coloring);
}

/// A sink-bound copy of an entry: everything a row renders, minus the
/// (potentially large) coloring.
BatchEntry row_copy(const BatchEntry& e) {
  BatchEntry copy;
  copy.index = e.index;
  copy.strategy = e.strategy;
  copy.paths = e.paths;
  copy.load = e.load;
  copy.wavelengths = e.wavelengths;
  copy.optimal = e.optimal;
  copy.failed = e.failed;
  copy.error = e.error;
  copy.millis = e.millis;
  return copy;
}

/// In-order sink dispatcher: chunks may finish in any order on any number
/// of workers, but rows reach every sink strictly in instance order
/// through a reorder window keyed by chunk index — so sink output is
/// identical for a fixed seed at any thread count.
///
/// The window is BOUNDED: a worker submitting an out-of-order chunk while
/// kMaxPendingChunks are already buffered blocks until the straggler
/// drains, so a streaming (keep_entries = false) million-instance batch
/// stays at bounded memory even when one early chunk is orders of
/// magnitude slower than the rest. Deadlock-free: workers claim chunk
/// ordinals from one counter in ascending order
/// (util::parallel_fixed_chunks), so a blocked submitter's chunk was
/// claimed after the next-undelivered one. That chunk is therefore
/// running on some other worker, which cannot itself be blocked here:
/// its submit is in order and is never made to wait.
class InOrderDispatcher {
 public:
  /// Out-of-order chunks buffered before submitters are backpressured.
  static constexpr std::size_t kMaxPendingChunks = 256;

  explicit InOrderDispatcher(std::span<api::ResultSink* const> sinks)
      : sinks_(sinks) {}

  void submit(std::size_t chunk_index, std::vector<BatchEntry> rows) {
    std::unique_lock<std::mutex> lock(mu_);
    // While this submitter waited, next_ may have advanced up to its own
    // chunk — in which case it must deliver, not buffer, or the rows
    // would be stranded in pending_ behind an already-passed next_.
    drained_.wait(lock, [this, chunk_index] {
      return failed_ || chunk_index == next_ ||
             pending_.size() < kMaxPendingChunks;
    });
    if (failed_) return;  // poisoned: drop rows, never block
    if (chunk_index != next_) {
      pending_.emplace(chunk_index, std::move(rows));
      return;
    }
    try {
      deliver(rows);
      ++next_;
      while (!pending_.empty() && pending_.begin()->first == next_) {
        deliver(pending_.begin()->second);
        pending_.erase(pending_.begin());
        ++next_;
      }
    } catch (...) {
      // A sink threw mid-delivery: next_ can never advance past this
      // chunk, so without poisoning every later submitter would block
      // forever once the window fills. Fail the whole stream instead.
      poison_locked();
      throw;  // recorded as the chunk's error by parallel_fixed_chunks
    }
    drained_.notify_all();
  }

  /// Marks the stream failed: wakes and releases every blocked
  /// submitter, drops buffered rows. Called when a chunk dies before it
  /// could submit its ordinal — the window would otherwise wait for a
  /// chunk that is never coming.
  void poison() {
    const std::lock_guard<std::mutex> lock(mu_);
    poison_locked();
  }

  void finish() {
    const std::lock_guard<std::mutex> lock(mu_);
    WDAG_ASSERT(failed_ || pending_.empty(),
                "batch sinks: chunks missing at finish");
  }

 private:
  void deliver(const std::vector<BatchEntry>& rows) {
    for (const BatchEntry& e : rows) {
      for (api::ResultSink* sink : sinks_) sink->row(e);
    }
  }

  void poison_locked() {
    failed_ = true;
    pending_.clear();
    drained_.notify_all();
  }

  std::span<api::ResultSink* const> sinks_;
  std::mutex mu_;
  std::condition_variable drained_;
  std::size_t next_ = 0;
  bool failed_ = false;
  std::map<std::size_t, std::vector<BatchEntry>> pending_;
};

/// Aggregates folded in under a mutex when entries are not kept
/// (keep_entries == false): exact counts and one latency sample per
/// successful instance instead of a full BatchEntry.
struct StreamAccum {
  std::mutex mu;
  std::vector<std::size_t> strategy_counts;
  std::size_t optimal = 0;
  std::size_t failures = 0;
  std::size_t wavelengths = 0;
  std::size_t load = 0;
  std::vector<double> latencies;

  explicit StreamAccum(std::size_t strategies)
      : strategy_counts(strategies, 0) {}

  void fold(const StreamAccum& part) {
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t s = 0; s < strategy_counts.size(); ++s) {
      strategy_counts[s] += part.strategy_counts[s];
    }
    optimal += part.optimal;
    failures += part.failures;
    wavelengths += part.wavelengths;
    load += part.load;
    latencies.insert(latencies.end(), part.latencies.begin(),
                     part.latencies.end());
  }

  void add(const BatchEntry& e) {
    if (e.failed) {
      ++failures;
      return;
    }
    if (e.strategy < strategy_counts.size()) ++strategy_counts[e.strategy];
    if (e.optimal) ++optimal;
    wavelengths += e.wavelengths;
    load += e.load;
    latencies.push_back(e.millis);
  }
};

/// Nearest-rank 0-based index of quantile q in an n-element sample.
std::size_t rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return std::min(n - 1,
                  static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
}

/// Fills the latency summary from an unsorted sample, partially
/// reordering it in place (core::latency_stats, the shared selection
/// machinery).
void fill_latency(BatchReport& report, std::vector<double>& latencies) {
  report.latency = latency_stats(latencies);
}

/// Fills the aggregate fields of a report whose entries are complete.
void aggregate_entries(BatchReport& report) {
  // Reused across reports: repeated batches (sweeps) stop reallocating
  // a fresh 100k-sample vector per point.
  thread_local std::vector<double> latencies;
  latencies.clear();
  latencies.reserve(report.entries.size());
  for (const BatchEntry& e : report.entries) {
    if (e.failed) {
      ++report.failure_count;
      continue;
    }
    if (e.strategy < report.strategy_counts.size()) {
      ++report.strategy_counts[e.strategy];
    }
    if (e.optimal) ++report.optimal_count;
    report.total_wavelengths += e.wavelengths;
    report.total_load += e.load;
    latencies.push_back(e.millis);
  }
  fill_latency(report, latencies);
}

/// Display name of strategy `id` under `names`, with the built-in names as
/// a fallback so default-constructed reports still render.
std::string_view name_of(const std::vector<std::string>& names,
                         StrategyId id) {
  if (id < names.size()) return names[id];
  return builtin_strategy_name(id);
}

}  // namespace

LatencyStats latency_stats(std::vector<double>& samples) {
  LatencyStats stats;
  if (samples.empty()) return stats;
  double sum = 0.0;
  for (const double l : samples) sum += l;
  const std::size_t n = samples.size();
  stats.mean = sum / static_cast<double>(n);
  const std::size_t i50 = rank_index(n, 0.50);
  const std::size_t i90 = rank_index(n, 0.90);
  const std::size_t i99 = rank_index(n, 0.99);
  const auto begin = samples.begin();
  // After each selection the pivot slot holds its exact order statistic
  // and everything right of it is >=, so the next (strictly larger) rank
  // only needs the tail past the pivot — which also leaves the already-
  // selected slots untouched for the reads below.
  std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(i50),
                   samples.end());
  if (i90 > i50) {
    std::nth_element(begin + static_cast<std::ptrdiff_t>(i50) + 1,
                     begin + static_cast<std::ptrdiff_t>(i90), samples.end());
  }
  if (i99 > i90) {
    std::nth_element(begin + static_cast<std::ptrdiff_t>(i90) + 1,
                     begin + static_cast<std::ptrdiff_t>(i99), samples.end());
  }
  stats.p50 = samples[i50];
  stats.p90 = samples[i90];
  stats.p99 = samples[i99];
  stats.max = *std::max_element(begin + static_cast<std::ptrdiff_t>(i99),
                                samples.end());
  return stats;
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
std::string_view schedule_name(Schedule schedule) {
  return schedule == Schedule::kStealing ? "stealing" : "fixed";
}
#pragma GCC diagnostic pop

double BatchReport::instances_per_second() const {
  if (instance_count == 0 || wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(instance_count) / wall_seconds;
}

std::size_t BatchReport::count(std::string_view name) const {
  for (StrategyId id = 0; id < strategy_names.size(); ++id) {
    if (strategy_names[id] == name) return count(id);
  }
  return 0;
}

util::Table BatchReport::rows_table(bool with_latency) const {
  std::vector<std::string> header = {"index",       "method",  "paths",
                                     "load",        "wavelengths", "optimal"};
  if (with_latency) header.push_back("millis");
  util::Table table("batch results", std::move(header));
  for (const BatchEntry& e : entries) {
    std::vector<util::Cell> row = {
        static_cast<long long>(e.index),
        e.failed ? std::string("error")
                 : std::string(name_of(strategy_names, e.strategy)),
        static_cast<long long>(e.paths),
        static_cast<long long>(e.load),
        static_cast<long long>(e.wavelengths),
        static_cast<long long>(e.optimal ? 1 : 0)};
    if (with_latency) row.push_back(e.millis);
    table.add_row(std::move(row));
  }
  return table;
}

util::Table BatchReport::histogram_table() const {
  util::Table table("dispatch histogram", {"method", "count", "share"});
  // One denominator for every row (total instances) so the column sums to
  // 1 even when some instances failed.
  const double total = static_cast<double>(instance_count);
  for (StrategyId id = 0; id < strategy_counts.size(); ++id) {
    const std::size_t c = strategy_counts[id];
    const double share = total == 0 ? 0.0 : static_cast<double>(c) / total;
    table.add_row({std::string(name_of(strategy_names, id)),
                   static_cast<long long>(c), share});
  }
  if (failure_count > 0) {
    table.add_row({std::string("error"),
                   static_cast<long long>(failure_count),
                   static_cast<double>(failure_count) / total});
  }
  return table;
}

std::string BatchReport::to_json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{";
  os << "\"instances\":" << instance_count;
  os << ",\"seed\":" << seed;
  os << ",\"threads\":" << threads_used;
  os << ",\"schedule\":\"fixed\"";  // one schedule; key kept until 0.5.0
  os << ",\"chunk\":" << chunk_size;
  os << ",\"failures\":" << failure_count;
  os << ",\"optimal\":" << optimal_count;
  os << ",\"total_load\":" << total_load;
  os << ",\"total_wavelengths\":" << total_wavelengths;
  os << ",\"wall_seconds\":" << wall_seconds;
  os << ",\"instances_per_second\":" << instances_per_second();
  os << ",\"methods\":{";
  for (StrategyId id = 0; id < strategy_counts.size(); ++id) {
    if (id != 0) os << ",";
    os << "\"" << name_of(strategy_names, id) << "\":" << strategy_counts[id];
  }
  os << "}";
  os << ",\"latency_ms\":{";
  os << "\"mean\":" << latency.mean;
  os << ",\"p50\":" << latency.p50;
  os << ",\"p90\":" << latency.p90;
  os << ",\"p99\":" << latency.p99;
  os << ",\"max\":" << latency.max;
  os << "}";
  os << "}";
  return os.str();
}

BatchReport run_batch_items(std::size_t count, const BatchItemSolver& item,
                            const BatchOptions& options,
                            std::vector<std::string> strategy_names,
                            std::span<api::ResultSink* const> sinks,
                            util::ThreadPool* pool,
                            std::span<SolveScratch> arenas) {
  WDAG_REQUIRE(item != nullptr, "run_batch_items: item solver must be set");
  WDAG_REQUIRE(options.index_stride >= 1,
               "BatchOptions::index_stride must be >= 1");
  BatchReport report;
  report.instance_count = count;
  report.strategy_names = std::move(strategy_names);
  report.strategy_counts.assign(report.strategy_names.size(), 0);
  const bool keep = options.keep_entries;
  if (keep) report.entries.resize(count);

  std::vector<api::ResultSink*> all_sinks(sinks.begin(), sinks.end());

  api::BatchStreamInfo info;
  info.instance_count = count;
  info.seed = options.seed;
  info.strategy_names = &report.strategy_names;
  for (api::ResultSink* sink : all_sinks) sink->begin(info);
  InOrderDispatcher dispatcher(all_sinks);
  const bool sinking = !all_sinks.empty();
  StreamAccum accum(report.strategy_names.size());

  const util::Timer timer;
  std::optional<util::ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(options.threads);
    pool = &*own_pool;
  }
  WDAG_REQUIRE(arenas.empty() || arenas.size() >= pool->size(),
               "run_batch_items: arenas must cover every pool worker");
  report.threads_used = pool->size();
  CostModel* const model = options.cost_model;

  // The effective chunk size: a pinned one as asked, otherwise sized by
  // the cost model so a chunk holds ~constant expected work (a cold
  // model falls back to the built-in priors). Either way the partition
  // is contiguous and ascending, and since seeding is per instance the
  // choice never alters output bytes.
  std::size_t chunk = options.chunk;
  if (chunk == 0) {
    const CostModel cold;
    chunk = (model != nullptr ? *model : cold)
                .suggest_chunk(count, pool->size(), 1, 256);
  }
  report.chunk_size = count == 0 ? 0 : chunk;
  report.worker_chunks.assign(pool->size(), 0);

  const auto chunk_body = [&](std::size_t chunk_index, std::size_t lo,
                              std::size_t hi) {
    const int worker = util::ThreadPool::current_worker_index();
    // Chunks run on this pool's workers only, one at a time per worker,
    // so each worker_chunks slot has a single writer.
    if (worker >= 0 &&
        static_cast<std::size_t>(worker) < report.worker_chunks.size()) {
      ++report.worker_chunks[static_cast<std::size_t>(worker)];
    }
    // The per-worker scratch arena: either the caller's (indexed by
    // pool worker, e.g. api::Engine's persistent arenas) or a
    // thread-local fallback — pool threads persist across chunks, so
    // every instance this worker touches reuses the same
    // conflict-graph rows and entry buffers either way.
    SolveScratch* scratch;
    if (!arenas.empty() && worker >= 0 &&
        static_cast<std::size_t>(worker) < arenas.size()) {
      scratch = &arenas[static_cast<std::size_t>(worker)];
    } else {
      thread_local SolveScratch fallback;
      scratch = &fallback;
    }

    try {
      StreamAccum part(accum.strategy_counts.size());
      std::vector<BatchEntry> rows;
      if (sinking) rows.reserve(hi - lo);
      thread_local std::vector<CostSample> samples;  // reused across chunks
      samples.clear();
      BatchEntry local;
      for (std::size_t i = lo; i < hi; ++i) {
        // Everything observable about an instance is keyed by its GLOBAL
        // index: RNG stream, reported index, item callback — so a shard
        // run (index_base > 0 and/or index_stride > 1) reproduces the
        // unsharded run's bytes for its slice of the range.
        const std::size_t global =
            options.index_base + i * options.index_stride;
        BatchEntry& entry = keep ? report.entries[i] : local;
        if (!keep) entry = BatchEntry{};
        entry.index = global;
        util::Xoshiro256 rng = instance_rng(options.seed, global);
        item(rng, global, entry, *scratch);
        if (model != nullptr && !entry.failed) {
          samples.push_back({entry.strategy, entry.paths,
                             entry.millis * 1000.0});
        }
        if (!keep) part.add(entry);
        if (sinking) rows.push_back(row_copy(entry));
      }
      if (model != nullptr) model->observe(samples);
      if (!keep) accum.fold(part);
      if (sinking) dispatcher.submit(chunk_index, std::move(rows));
    } catch (...) {
      // This chunk's ordinal will never reach the dispatcher (the item
      // contract makes this rare: a throwing sink or bad_alloc); poison
      // the bounded window so waiting submitters fail fast instead of
      // blocking on a chunk that is not coming.
      if (sinking) dispatcher.poison();
      throw;  // parallel_fixed_chunks rethrows the batch's first error
    }
  };

  util::parallel_fixed_chunks(*pool, 0, count, chunk, chunk_body);
  dispatcher.finish();

  if (keep) {
    aggregate_entries(report);
  } else {
    report.strategy_counts = accum.strategy_counts;
    report.optimal_count = accum.optimal;
    report.failure_count = accum.failures;
    report.total_wavelengths = accum.wavelengths;
    report.total_load = accum.load;
    fill_latency(report, accum.latencies);
  }
  report.wall_seconds = timer.seconds();
  report.seed = options.seed;
  for (api::ResultSink* sink : all_sinks) sink->end(report);
  return report;
}

BatchReport solve_batch(std::span<const paths::DipathFamily> families,
                        const SolveOptions& solve_options,
                        const BatchOptions& batch_options) {
  // A striped index set cannot be expressed as a subspan of the caller's
  // families; striping is a generated-workload feature.
  WDAG_REQUIRE(batch_options.index_stride == 1,
               "solve_batch: explicit families require index_stride == 1 "
               "(striped layouts need a generated workload)");
  return run_batch_items(
      families.size(),
      [&families, &solve_options, &batch_options](
          util::Xoshiro256& /*rng*/, std::size_t i, BatchEntry& entry,
          SolveScratch& scratch) {
        // i is global; the span holds this run's slice only.
        solve_into(entry, families[i - batch_options.index_base],
                   solve_options, scratch, batch_options.keep_colorings);
      },
      batch_options, builtin_strategy_names());
}

BatchReport solve_generated_batch(std::size_t count,
                                  const InstanceGenerator& generate,
                                  const SolveOptions& solve_options,
                                  const BatchOptions& batch_options) {
  WDAG_REQUIRE(generate != nullptr, "generator must be callable");
  return run_batch_items(
      count,
      [&generate, &solve_options, &batch_options](
          util::Xoshiro256& rng, std::size_t i, BatchEntry& entry,
          SolveScratch& scratch) {
        try {
          const gen::Instance inst = generate(rng, i);
          solve_into(entry, inst.family, solve_options, scratch,
                     batch_options.keep_colorings);
        } catch (const std::exception& e) {
          entry.failed = true;
          entry.error = e.what();
        }
      },
      batch_options, builtin_strategy_names());
}

}  // namespace wdag::core
