#pragma once
// Parallel batch solving: fan a workload of dipath-family instances out
// over a thread pool, solve each with the dispatching solver, and
// aggregate per-strategy counts and latency percentiles into a report.
//
// Determinism contract: every instance derives its own RNG from
// (options.seed, instance index) via splitmix64, and results are written
// into per-instance slots — so a batch's report is identical for
// identical seeds no matter how many threads run it, how the range is
// chunked, or how the OS schedules the chunks. Result sinks
// (api/sink.hpp) receive rows in strict instance order through a
// chunk-ordinal reorder window, so streamed bytes are invariant across
// all of the above too.
//
// One schedule: the range is cut into contiguous chunks, and the pool's
// workers pull the next chunk ordinal from one shared counter
// (util::parallel_fixed_chunks), so an idle worker always takes the
// lowest unclaimed chunk. The chunk size is BatchOptions::chunk when the
// caller pins it; otherwise the cost model (core/cost_model.hpp) sizes
// it from the per-strategy solve micros it has observed, so exact-solver
// stragglers split fine while cheap Theorem 1 instances batch coarse.
//
// run_batch_items is the generalized driver underneath both the legacy
// entry points below and api::Engine::run_batch; per-instance stats are
// keyed by StrategyId against a registry-sized count vector, so adding a
// strategy can never silently fall off the histogram (the old
// method_counts[4] C-array failure mode).

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"
#include "gen/instance.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace wdag::util {
class ThreadPool;
}  // namespace wdag::util

namespace wdag::api {
class ResultSink;
}  // namespace wdag::api

namespace wdag::core {

class CostModel;

// Deprecated in 0.4.1, removed in 0.5.0: the schedule spellings select
// nothing. The pragmas keep the declarations below that still name them
// (and their implicit members) from warning in every includer.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

enum class [[deprecated("wdag has one batch schedule")]] Schedule {
  kFixed,
  kStealing,
};

/// "fixed" / "stealing", the names of the old schedules.
[[deprecated("wdag has one batch schedule")]]
std::string_view schedule_name(Schedule schedule);

/// Knobs of the batch driver (solver knobs live in SolveOptions).
struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  /// Ignored when the caller supplies its own pool (api::Engine does).
  std::size_t threads = 0;
  /// Instances per work chunk. 0 (the default) lets the cost model size
  /// it (CostModel::suggest_chunk over [1, 256]); any other value pins
  /// it. Seeding is per instance, so the chunk size never changes output.
  std::size_t chunk = 0;
  /// Base seed; instance i works with splitmix64(seed, i)-derived
  /// randomness, whatever the chunking.
  std::uint64_t seed = 1;
  /// GLOBAL index of this run's first instance (shard support,
  /// core/shard.hpp). Instance i of the run derives its RNG from
  /// (seed, index_base + i * index_stride) and reports that global index
  /// in its entry and rows — so a shard solving [base, base + count) of a
  /// larger batch emits exactly the rows the unsharded run emits for that
  /// range, and the item callback always receives the global index.
  std::size_t index_base = 0;
  /// Distance between consecutive global indices of this run. 1 (the
  /// default) is the contiguous case; a striped shard s of K sets
  /// index_base = s, index_stride = K to solve {s, s + K, s + 2K, ...}.
  /// Must be >= 1.
  std::size_t index_stride = 1;
  [[deprecated("no effect: wdag has one batch schedule")]]
  Schedule schedule = Schedule::kFixed;
  [[deprecated("no effect: pin the chunk size with `chunk`")]]
  std::size_t min_chunk = 1;
  [[deprecated("no effect: pin the chunk size with `chunk`")]]
  std::size_t max_chunk = 256;
  /// Cost model consulted for the chunk size when `chunk` is 0 and fed
  /// with this batch's observed per-instance costs (borrowed, not owned;
  /// may be null — a cold model with the built-in priors sizes the
  /// chunks then). api::Engine wires its own persistent model in here.
  CostModel* cost_model = nullptr;
  /// Keep every instance's coloring in the report (memory-heavy; off by
  /// default so million-instance sweeps stay lean).
  bool keep_colorings = false;
  /// Keep per-instance entries in the report. Set false for streaming
  /// sweeps: aggregates (counts, totals, latency percentiles) are still
  /// exact, but report.entries stays empty and per-instance memory drops
  /// to one latency sample, so million-instance batches run at
  /// near-constant memory. Combine with a sink to retain the rows.
  /// (Streaming CSV output is an api::CsvStreamSink passed via the sinks
  /// span / BatchRequest::sinks; the stream_csv string shim was removed
  /// in 0.2.0.)
  bool keep_entries = true;
};

/// Outcome of one instance inside a batch.
struct BatchEntry {
  std::size_t index = 0;        ///< position in the input span / generation order
  StrategyId strategy = 0;      ///< registry id of the strategy that solved it
  std::size_t paths = 0;        ///< family size
  std::size_t load = 0;         ///< pi(G,P)
  std::size_t wavelengths = 0;  ///< colors used
  bool optimal = false;
  bool failed = false;          ///< solver threw; see `error`
  std::string error;            ///< exception message when failed
  double millis = 0.0;          ///< wall-clock solve latency
  conflict::Coloring coloring;  ///< only populated with keep_colorings
};

/// Latency summary in milliseconds over the successful entries.
struct LatencyStats {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Latency summary of an unsorted millisecond sample, partially
/// reordering `samples` in place (three chained nth_element selections —
/// O(n), not a sort). Zeroed stats for an empty sample. Shared by the
/// batch report aggregation and the serve /stats endpoint.
[[nodiscard]] LatencyStats latency_stats(std::vector<double>& samples);

/// Aggregated outcome of a batch solve.
struct BatchReport {
  std::vector<BatchEntry> entries;      ///< indexed by instance order; empty
                                        ///< when keep_entries was false
  std::size_t instance_count = 0;       ///< instances solved (entries may be dropped)
  /// Solve count per strategy, indexed by StrategyId and sized to the
  /// registry that ran the batch (the built-ins for the legacy entry
  /// points below).
  std::vector<std::size_t> strategy_counts =
      std::vector<std::size_t>(kBuiltinStrategyCount, 0);
  /// Strategy display names, index-aligned with strategy_counts.
  std::vector<std::string> strategy_names = builtin_strategy_names();
  std::size_t optimal_count = 0;
  std::size_t failure_count = 0;
  std::size_t total_wavelengths = 0;    ///< sum over successful entries
  std::size_t total_load = 0;
  LatencyStats latency;                 ///< per-instance solve latency
  double wall_seconds = 0.0;            ///< end-to-end batch wall clock
  std::size_t threads_used = 0;
  std::uint64_t seed = 0;
  [[deprecated("always kFixed: wdag has one batch schedule")]]
  Schedule schedule = Schedule::kFixed;
  std::size_t chunk_size = 0;           ///< effective instances per chunk
  /// Chunks executed per pool worker, sized threads_used; the slots sum
  /// to the batch's chunk count.
  std::vector<std::size_t> worker_chunks;

  /// Instances solved per wall-clock second (0 for an empty batch).
  [[nodiscard]] double instances_per_second() const;

  /// Count for one strategy id (0 for ids past the registry).
  [[nodiscard]] std::size_t count(StrategyId id) const {
    return id < strategy_counts.size() ? strategy_counts[id] : 0;
  }
  /// Count for one strategy, by registered name (0 when unknown).
  [[nodiscard]] std::size_t count(std::string_view strategy_name) const;

  /// Per-instance rows (index, method, paths, load, wavelengths, optimal
  /// and, with `with_latency`, millis) as a util::Table — render with
  /// to_csv()/to_text()/to_markdown(). Pass with_latency = false when the
  /// output must be byte-identical across runs of the same seed.
  [[nodiscard]] util::Table rows_table(bool with_latency = true) const;

  /// One-row-per-strategy dispatch histogram as a util::Table.
  [[nodiscard]] util::Table histogram_table() const;

  /// The aggregate report as a JSON object (stable key order).
  [[nodiscard]] std::string to_json() const;
};

#pragma GCC diagnostic pop

/// Per-instance callback of the generalized batch driver: fill `entry`
/// for instance `index` (strategy, paths, load, wavelengths, optimal — or
/// failed + error; never throw), drawing any randomness from `rng` (a
/// fresh stream derived from (seed, index), whatever the chunking)
/// and reusing `scratch` across the instances of a worker. `index` is
/// GLOBAL (options.index_base + local position), so generator callbacks
/// behave identically sharded and unsharded.
using BatchItemSolver =
    std::function<void(util::Xoshiro256& rng, std::size_t index,
                       BatchEntry& entry, SolveScratch& scratch)>;

/// The chunked-deterministic batch driver shared by the legacy entry
/// points and api::Engine::run_batch.
///
///  * `strategy_names` sizes the report's per-strategy count vector and
///    labels rows/histograms (pass the registry's names()).
///  * `sinks` receive begin / per-row (instance order) / end callbacks.
///    Sink calls are serialized by the driver.
///  * `pool` runs the chunks when non-null (its size wins over
///    options.threads); otherwise a pool of options.threads workers is
///    created for the call.
///  * `arenas` are per-worker scratch arenas, indexed by the pool's
///    worker index; when empty (or off-pool) a thread-local arena is
///    used. Sized arenas must cover pool->size().
BatchReport run_batch_items(std::size_t count, const BatchItemSolver& item,
                            const BatchOptions& options,
                            std::vector<std::string> strategy_names,
                            std::span<api::ResultSink* const> sinks = {},
                            util::ThreadPool* pool = nullptr,
                            std::span<SolveScratch> arenas = {});

/// Solves every family in `families` (already built; host graphs must
/// outlive the call) and aggregates the outcomes. Exceptions thrown by the
/// solver on an instance are captured into that instance's entry rather
/// than aborting the batch.
BatchReport solve_batch(std::span<const paths::DipathFamily> families,
                        const SolveOptions& solve_options = {},
                        const BatchOptions& batch_options = {});

/// Generator callback: produces instance `index` from its deterministic
/// index-derived RNG. Must be callable concurrently from multiple threads.
using InstanceGenerator =
    std::function<gen::Instance(util::Xoshiro256& rng, std::size_t index)>;

/// Generate-and-solve fusion: materializes `count` instances on the
/// workers (instance i is built inside its chunk from its own
/// index-derived RNG, keeping peak memory at one chunk per worker) and
/// solves each immediately. Deterministic for a fixed seed regardless of
/// thread count or chunking.
BatchReport solve_generated_batch(std::size_t count,
                                  const InstanceGenerator& generate,
                                  const SolveOptions& solve_options = {},
                                  const BatchOptions& batch_options = {});

}  // namespace wdag::core
