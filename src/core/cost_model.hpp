#pragma once
// Per-strategy solve-cost model that sizes the batch engine's chunks
// when the caller does not pin BatchOptions::chunk (core/batch.hpp).
//
// The batch engine feeds every solved instance's (strategy, family size,
// micros) back into the model as an exponentially weighted moving average
// keyed by StrategyId and a log2 size bucket — the same keying the
// classify-driven dispatch uses to pick the strategy, so the model learns
// exactly the cost structure dispatch induces. Before any observation the
// built-in strategies carry priors reflecting their dispatch tiers
// (Theorem 1 replay is cheap, DSATUR mid, exact branch-and-bound orders
// of magnitude heavier), so even a cold model splits exact-heavy
// workloads fine and batches cheap structural ones coarse.
//
// An api::Engine owns one CostModel for its lifetime: sweeps and repeated
// batches keep refining the same estimates.

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "core/solver.hpp"

namespace wdag::core {

/// One solved instance's cost observation.
struct CostSample {
  StrategyId strategy = 0;
  std::size_t paths = 0;  ///< family size (the bucket key)
  double micros = 0.0;    ///< observed wall-clock solve cost
};

/// Thread-safe EWMA table of solve micros per (strategy, size bucket).
class CostModel {
 public:
  /// Starts from the built-in strategy priors (low weight, so real
  /// observations dominate within one chunk).
  CostModel();

  /// Folds a batch of observations in (one lock per call — callers batch
  /// a chunk's worth of samples rather than locking per instance).
  void observe(std::span<const CostSample> samples);

  /// Expected micros for one (strategy, size) cell; falls back to the
  /// strategy's nearest observed bucket, then to expected_micros().
  [[nodiscard]] double estimate_micros(StrategyId strategy,
                                       std::size_t paths) const;

  /// Observation-weighted mean micros per instance across every cell —
  /// the dispatch-share-weighted cost the chunk sizing works from.
  [[nodiscard]] double expected_micros() const;

  /// Instances per chunk for a `count`-instance batch on `workers`
  /// workers: targets ~2ms of expected work per chunk, additionally caps
  /// the size so a chunk filled with the costliest observed strategy's
  /// instances stays bounded (~8ms) — chunk sizing cannot know which
  /// index hides a straggler, so heavy-strategy workloads split fine
  /// while cheap-only workloads batch coarse — keeps at least ~8 chunks
  /// per worker so idle workers find the next chunk behind a straggler,
  /// and clamps into [min_chunk, max_chunk].
  [[nodiscard]] std::size_t suggest_chunk(std::size_t count,
                                          std::size_t workers,
                                          std::size_t min_chunk,
                                          std::size_t max_chunk) const;

 private:
  struct Cell {
    double mean = 0.0;    ///< EWMA of observed micros
    double weight = 0.0;  ///< saturating observation count
  };

  static constexpr std::size_t kBuckets = 16;  ///< log2(paths), clamped
  static std::size_t bucket_of(std::size_t paths);

  [[nodiscard]] double expected_locked() const;

  mutable std::mutex mu_;
  /// Dense [strategy * kBuckets + bucket]; grown when a user-registered
  /// strategy beyond the built-ins is first observed.
  std::vector<Cell> cells_;
};

}  // namespace wdag::core
