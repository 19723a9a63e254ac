#pragma once
// wdag::api::Engine — the stable session object of the public API.
//
// An Engine owns the worker thread pool, one SolveScratch arena per
// worker, and a StrategyRegistry seeded with the four built-ins
// (Theorem 1 / split-merge / DSATUR / exact). Construct one per process
// (or per isolation domain), register any custom SolverStrategy backends,
// then drive it:
//
//   wdag::api::Engine engine;
//   auto resp  = engine.submit(SolveRequest::of(family));
//   auto report = engine.run_batch(BatchRequest::generated("random-upp", 1000));
//
// submit() solves one instance on the calling thread; run_batch() fans a
// workload out over the pool through the chunked-deterministic batch
// engine, streaming rows into any ResultSinks in strict instance order.
// Reports key per-strategy stats by StrategyId against the registry, so
// registered backends show up in histograms automatically.
//
// Thread-safety: submit() may be called concurrently; run_batch() runs
// one batch at a time per engine; register_strategy() must happen before
// concurrent use (typically right after construction).

#include <cstddef>
#include <memory>
#include <vector>

#include "api/request.hpp"
#include "api/sink.hpp"
#include "api/strategy.hpp"
#include "core/batch.hpp"
#include "core/cost_model.hpp"
#include "core/shard.hpp"
#include "core/solver.hpp"
#include "util/thread_pool.hpp"

namespace wdag::api {

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads of the owned pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Default solver knobs applied to every request that does not carry
  /// its own.
  core::SolveOptions solve;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Worker threads of the owned pool.
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

  /// The strategy registry (built-ins plus anything registered).
  [[nodiscard]] const StrategyRegistry& strategies() const {
    return registry_;
  }

  /// Registers a custom backend; it takes dispatch precedence over every
  /// earlier strategy on the hosts it declares applicable. Returns its
  /// id. Not thread-safe with respect to concurrent solves.
  StrategyId register_strategy(std::unique_ptr<SolverStrategy> strategy);

  /// Solves one request on the calling thread. Throws
  /// wdag::InvalidArgument on malformed requests (no source, two sources,
  /// unknown generator/strategy names) and wdag::DomainError for hosts
  /// outside the solvable domain (non-DAGs).
  [[nodiscard]] SolveResponse submit(const SolveRequest& request);

  /// Fans a workload out over the engine pool with deterministic
  /// per-instance seeding; per-instance failures are captured into
  /// entries, not thrown. Rows reach request.sinks in strict instance
  /// order. Unless BatchRequest::options.chunk pins the chunk size, the
  /// engine's persistent cost model (refined by every batch this engine
  /// runs) sizes the chunks, or the request's own model when it wires
  /// one in.
  [[nodiscard]] core::BatchReport run_batch(const BatchRequest& request);

  /// Runs ONE shard of `request`: the global index set the plan layout
  /// assigns to `shard` — the contiguous core::shard_range slice, or
  /// every shards-th index starting at `shard` for the striped layout —
  /// with every instance keyed by its GLOBAL index: RNG stream, entry
  /// index, sink rows. Reassembling the K shards' sink outputs (see
  /// core::merge_shard_csv / merge_shard_json) therefore reproduces the
  /// unsharded run_batch bytes exactly, whatever thread count or
  /// chunk size each shard picked. `request` describes the FULL batch
  /// (global count / full families span); sinks attached to it receive
  /// only this shard's rows. Striped layouts require a generated
  /// workload (an explicit families span cannot be strided).
  [[nodiscard]] core::BatchReport run_shard(
      const BatchRequest& request, std::size_t shard, std::size_t shards,
      core::ShardLayout layout = core::ShardLayout::kContiguous);

  /// The engine's persistent solve-cost model: consulted for unpinned
  /// chunk sizes and updated with every batch's observed costs.
  [[nodiscard]] const core::CostModel& cost_model() const {
    return cost_model_;
  }

 private:
  EngineOptions options_;
  StrategyRegistry registry_;
  util::ThreadPool pool_;
  std::vector<core::SolveScratch> arenas_;  ///< one per pool worker
  core::CostModel cost_model_;              ///< shared across batches
};

}  // namespace wdag::api
