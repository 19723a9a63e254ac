#include "api/engine.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/shard.hpp"
#include "gen/workloads.hpp"
#include "paths/familyio.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdag::api {

namespace {

/// Rejects unknown workload names up front, before a batch fans out and
/// records the same error once per instance.
void require_known_workload(const std::string& name) {
  const auto& names = gen::workload_names();
  WDAG_REQUIRE(!name.empty(), "GeneratorSpec: family name must be set");
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw InvalidArgument("unknown generator '" + name +
                          "' (see gen::workload_names())");
  }
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      arenas_(pool_.size()) {
  // First-cut NUMA-aware arena placement: warm each worker's arena ON
  // that worker, so the backing pages are first-touched (and under
  // WDAG_AFFINITY pinning, NUMA-placed) where the worker will use them.
  pool_.for_each_worker([this](std::size_t w) { arenas_[w].first_touch(); });
}

StrategyId Engine::register_strategy(std::unique_ptr<SolverStrategy> strategy) {
  return registry_.add(std::move(strategy));
}

SolveResponse Engine::submit(const SolveRequest& request) {
  const int sources = (request.family != nullptr ? 1 : 0) +
                      (request.generator.has_value() ? 1 : 0) +
                      (request.file.empty() ? 0 : 1);
  WDAG_REQUIRE(sources == 1,
               "SolveRequest: set exactly one of family/generator/file");
  const core::SolveOptions& options =
      request.options.has_value() ? *request.options : options_.solve;
  std::optional<StrategyId> force;
  if (request.force_strategy.has_value()) {
    force = registry_.find(*request.force_strategy);
    WDAG_REQUIRE(force.has_value(), "unknown strategy '" +
                                        *request.force_strategy +
                                        "' (see Engine::strategies())");
  }

  if (request.family != nullptr) {
    return solve_with(registry_, *request.family, options, force);
  }
  if (request.generator.has_value()) {
    require_known_workload(request.generator->family);
    util::Xoshiro256 rng(request.generator->seed);
    const gen::Instance inst = gen::workload_instance(
        request.generator->family, request.generator->params, rng);
    return solve_with(registry_, inst.family, options, force);
  }
  std::ifstream in(request.file);
  WDAG_REQUIRE(in.good(),
               "cannot open instance file '" + request.file + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const paths::ParsedInstance parsed = paths::parse_instance_text(buf.str());
  return solve_with(registry_, parsed.family, options, force);
}

core::BatchReport Engine::run_batch(const BatchRequest& request) {
  WDAG_REQUIRE(!(request.generator.has_value() && request.generate != nullptr),
               "BatchRequest: set only one of generator/generate");
  WDAG_REQUIRE(request.families.empty() ||
                   (!request.generator.has_value() &&
                    request.generate == nullptr),
               "BatchRequest: set only one of families/generator/generate");
  const core::SolveOptions base =
      request.solve.has_value() ? *request.solve : options_.solve;
  std::optional<StrategyId> force;
  if (request.force_strategy.has_value()) {
    force = registry_.find(*request.force_strategy);
    WDAG_REQUIRE(force.has_value(), "unknown strategy '" +
                                        *request.force_strategy +
                                        "' (see Engine::strategies())");
  }
  const bool keep_coloring = request.options.keep_colorings;

  std::size_t count;
  core::BatchItemSolver item;
  if (request.generator.has_value() || request.generate != nullptr) {
    if (request.generator.has_value()) {
      require_known_workload(request.generator->family);
    }
    count = request.count;
    item = [this, &request, base, force, keep_coloring](
               util::Xoshiro256& rng, std::size_t i, core::BatchEntry& entry,
               core::SolveScratch& scratch) {
      try {
        const gen::Instance inst =
            request.generator.has_value()
                ? gen::workload_instance(request.generator->family,
                                         request.generator->params, rng)
                : request.generate(rng, i);
        solve_into_entry(entry, registry_, inst.family, base, force, scratch,
                         keep_coloring);
      } catch (const std::exception& e) {
        entry.failed = true;
        entry.error = e.what();
      }
    };
  } else {
    count = request.families.size();
    item = [this, &request, base, force, keep_coloring](
               util::Xoshiro256& /*rng*/, std::size_t i,
               core::BatchEntry& entry, core::SolveScratch& scratch) {
      // i is global (shards offset it); the span holds this run's slice.
      solve_into_entry(entry, registry_,
                       request.families[i - request.options.index_base],
                       base, force, scratch, keep_coloring);
    };
  }

  // The engine pool runs the batch; options.threads is advisory only.
  // Unless the request brings its own cost model, the engine's
  // persistent one sizes unpinned chunks — so sweeps and repeated
  // batches keep refining the same per-strategy estimates.
  core::BatchOptions batch_options = request.options;
  if (batch_options.cost_model == nullptr) {
    batch_options.cost_model = &cost_model_;
  }
  return core::run_batch_items(count, item, batch_options,
                               registry_.names(), request.sinks, &pool_,
                               arenas_);
}

core::BatchReport Engine::run_shard(const BatchRequest& request,
                                    std::size_t shard, std::size_t shards,
                                    core::ShardLayout layout) {
  WDAG_REQUIRE(shards >= 1, "run_shard: shards must be >= 1");
  WDAG_REQUIRE(shard < shards,
               "run_shard: shard " + std::to_string(shard) +
                   " out of range for " + std::to_string(shards) +
                   " shards");
  WDAG_REQUIRE(request.options.index_base == 0 &&
                   request.options.index_stride == 1,
               "run_shard: the request must describe the FULL batch "
               "(options.index_base/index_stride are set by run_shard "
               "itself)");
  const std::size_t total =
      request.families.empty() ? request.count : request.families.size();

  // The shard is the same request narrowed to its global index set: the
  // index base (and, striped, the stride) keys every instance's RNG/row
  // by its global index, so the bytes this run streams are exactly the
  // unsharded run's rows at those indices.
  BatchRequest slice = request;
  if (layout == core::ShardLayout::kStriped) {
    // A striped index set cannot be expressed as a subspan.
    WDAG_REQUIRE(request.families.empty(),
                 "run_shard: striped layouts need a generated workload, "
                 "not an explicit families span");
    slice.options.index_base = shard;
    slice.options.index_stride = shards;
    slice.count = shard < total ? (total - shard + shards - 1) / shards : 0;
    return run_batch(slice);
  }
  const core::ShardRange range = core::shard_range(total, shards, shard);
  slice.options.index_base = range.begin;
  if (!request.families.empty()) {
    slice.families = request.families.subspan(range.begin, range.size());
  } else {
    slice.count = range.size();
  }
  return run_batch(slice);
}

}  // namespace wdag::api
