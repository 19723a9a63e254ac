#include "core/cost_model.hpp"

#include <algorithm>

namespace wdag::core {

namespace {

/// EWMA observation count cap: after this many samples a cell adapts with
/// a fixed step of 1/kMaxWeight, so drifting workloads re-converge fast.
constexpr double kMaxWeight = 32.0;

/// Target expected work per chunk, in micros. Small enough that one
/// straggler chunk cannot idle the other workers for long, large enough
/// to amortize the chunk claim and the per-chunk sink hand-off.
constexpr double kTargetChunkMicros = 2000.0;

/// Worst-case work one chunk may hold if it were filled entirely with the
/// costliest observed strategy's instances — the straggler guard that
/// keeps a mixed batch's heavy chunks small enough for the other workers
/// to move past, even though chunk sizing cannot know which index a
/// straggler hides at.
constexpr double kStragglerBudgetMicros = 4.0 * kTargetChunkMicros;

/// Observation weight below which a cell is too thin to drive the
/// straggler guard (the built-in priors sit at 1.0 on purpose: a cold
/// model must not over-split on the exact prior alone).
constexpr double kMinGuardWeight = 2.0;

/// Minimum chunks per worker, so idle workers always find the next chunk
/// behind a straggler.
constexpr std::size_t kChunksPerWorker = 8;

}  // namespace

std::size_t CostModel::bucket_of(std::size_t paths) {
  std::size_t b = 0;
  while (paths > 1 && b + 1 < kBuckets) {
    paths >>= 1;
    ++b;
  }
  return b;
}

CostModel::CostModel() : cells_(kBuiltinStrategyCount * kBuckets) {
  // Priors at the bucket of a typical workload family (~32 paths), one
  // observation of weight each: rough dispatch-tier magnitudes, washed
  // out by the first real chunk of samples.
  const std::size_t b = bucket_of(32);
  cells_[kStrategyTheorem1 * kBuckets + b] = {25.0, 1.0};
  cells_[kStrategySplitMerge * kBuckets + b] = {60.0, 1.0};
  cells_[kStrategyDsatur * kBuckets + b] = {80.0, 1.0};
  cells_[kStrategyExact * kBuckets + b] = {1500.0, 1.0};
}

void CostModel::observe(std::span<const CostSample> samples) {
  if (samples.empty()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const CostSample& s : samples) {
    const std::size_t need = (s.strategy + 1) * kBuckets;
    if (cells_.size() < need) cells_.resize(need);
    Cell& c = cells_[s.strategy * kBuckets + bucket_of(s.paths)];
    c.weight = std::min(c.weight + 1.0, kMaxWeight);
    c.mean += (s.micros - c.mean) / c.weight;
  }
}

double CostModel::estimate_micros(StrategyId strategy,
                                  std::size_t paths) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t base = strategy * kBuckets;
  if (base + kBuckets <= cells_.size()) {
    const std::size_t b = bucket_of(paths);
    if (cells_[base + b].weight > 0.0) return cells_[base + b].mean;
    // Nearest observed bucket of the same strategy.
    for (std::size_t d = 1; d < kBuckets; ++d) {
      if (b >= d && cells_[base + b - d].weight > 0.0) {
        return cells_[base + b - d].mean;
      }
      if (b + d < kBuckets && cells_[base + b + d].weight > 0.0) {
        return cells_[base + b + d].mean;
      }
    }
  }
  return expected_locked();
}

double CostModel::expected_locked() const {
  double sum = 0.0;
  double weight = 0.0;
  for (const Cell& c : cells_) {
    sum += c.mean * c.weight;
    weight += c.weight;
  }
  return weight > 0.0 ? sum / weight : kTargetChunkMicros;
}

double CostModel::expected_micros() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return expected_locked();
}

std::size_t CostModel::suggest_chunk(std::size_t count, std::size_t workers,
                                     std::size_t min_chunk,
                                     std::size_t max_chunk) const {
  double est;
  double heavy = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    est = std::max(expected_locked(), 0.5);
    // The costliest adequately-observed strategy cell: in a mixed batch
    // the sizing cannot know which index hides a straggler, so every
    // chunk is bounded as if it were all stragglers. Cheap-only models
    // leave the guard far above the cost target (no over-splitting).
    for (const Cell& c : cells_) {
      if (c.weight >= kMinGuardWeight) heavy = std::max(heavy, c.mean);
    }
  }
  std::size_t chunk = static_cast<std::size_t>(
      std::max(1.0, kTargetChunkMicros / est));
  if (heavy > 0.0) {
    chunk = std::min(chunk, static_cast<std::size_t>(std::max(
                                1.0, kStragglerBudgetMicros / heavy)));
  }
  const std::size_t by_count =
      std::max<std::size_t>(1, count / (kChunksPerWorker *
                                        std::max<std::size_t>(1, workers)));
  chunk = std::min(chunk, by_count);
  chunk = std::min(chunk, std::max<std::size_t>(1, max_chunk));
  chunk = std::max(chunk, std::max<std::size_t>(1, min_chunk));
  return chunk;
}

}  // namespace wdag::core
