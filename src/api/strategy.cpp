#include "api/strategy.hpp"

#include <algorithm>
#include <utility>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "conflict/exact_color.hpp"
#include "conflict/twins.hpp"
#include "core/split_merge.hpp"
#include "core/theorem1.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdag::api {

namespace {

/// Theorem 1: hosts without internal cycle get the constructive w == pi.
class Theorem1Strategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "theorem1"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.wavelengths_equal_load();
  }
  [[nodiscard]] bool self_validating() const override { return true; }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext& ctx) const override {
    auto r = core::color_equal_load(family, ctx.preverified);
    StrategyResult out;
    out.coloring = std::move(r.coloring);
    out.wavelengths = r.wavelengths;
    out.load = r.load;
    out.optimal = true;  // w == pi by Theorem 1
    return out;
  }
};

/// UPP hosts with internal cycles: Theorem 6's split-merge recursion.
class SplitMergeStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "split-merge"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag && r.is_upp;
  }
  [[nodiscard]] bool self_validating() const override { return true; }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext& ctx) const override {
    auto r = core::color_upp_split_merge(family, ctx.preverified);
    StrategyResult out;
    out.coloring = std::move(r.coloring);
    out.wavelengths = r.wavelengths;
    out.load = r.load;
    return out;
  }
};

/// General DAGs: DSATUR heuristic on the conflict graph.
class DsaturStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "dsatur"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag;  // the catch-all
  }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext& ctx) const override {
    // Over the family's twin classes: the colouring of dsatur_coloring on
    // the dipath-level graph, from class rows, with pi from the same pass.
    const conflict::TwinIndex& twins = conflict::index_twins(family);
    StrategyResult out;
    out.coloring = conflict::dsatur_coloring(twins, ctx.scratch.conflict_graph);
    out.wavelengths = conflict::normalize_colors(out.coloring);
    out.load = twins.load;
    return out;
  }
};

/// The exact chromatic number of a family with conflict graph `cg`,
/// between the bounds the pipeline already holds: the load `pi` below,
/// which on UPP hosts is the clique number itself (Property 3), and
/// `upper` above when it is a valid coloring (a fresh DSATUR coloring
/// otherwise). Serves both the forced exact strategy and certification.
conflict::ChromaticResult exact_coloring(const conflict::ConflictGraph& cg,
                                         const StrategyContext& ctx,
                                         std::size_t pi,
                                         const conflict::Coloring* upper) {
  conflict::ChromaticBounds bounds{pi, ctx.report.is_upp, {}};
  if (upper != nullptr && conflict::is_valid_coloring(cg, *upper)) {
    bounds.upper = *upper;
  } else {
    bounds.upper = conflict::dsatur_coloring(cg);
  }
  return conflict::chromatic_number(cg, std::move(bounds),
                                    ctx.options.exact_node_budget);
}

/// Exact branch-and-bound chromatic number; never dispatched (force /
/// certification only).
class ExactStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "exact"; }
  [[nodiscard]] bool applicable(const dag::DagReport&) const override {
    return false;
  }
  [[nodiscard]] bool self_validating() const override { return true; }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext& ctx) const override {
    // One arc-incidence pass: its groups are the cliques the conflict
    // graph is built from, and the largest of them is pi.
    thread_local std::vector<std::uint32_t> offsets;
    thread_local std::vector<paths::PathId> ids;
    paths::arc_incidence_csr(family, offsets, ids);
    std::size_t pi = 0;
    for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
      pi = std::max<std::size_t>(pi, offsets[a + 1] - offsets[a]);
    }
    ctx.scratch.conflict_graph.rebuild_from_groups(family.size(), offsets,
                                                   ids);
    auto r = exact_coloring(ctx.scratch.conflict_graph, ctx, pi, nullptr);
    StrategyResult out;
    out.coloring = std::move(r.coloring);
    out.wavelengths = r.chromatic_number;
    out.load = pi;
    out.optimal = r.proven;
    return out;
  }
};

}  // namespace

StrategyRegistry::StrategyRegistry() {
  strategies_.push_back(std::make_unique<Theorem1Strategy>());
  strategies_.push_back(std::make_unique<SplitMergeStrategy>());
  strategies_.push_back(std::make_unique<DsaturStrategy>());
  strategies_.push_back(std::make_unique<ExactStrategy>());
  dispatch_order_ = {core::kStrategyTheorem1, core::kStrategySplitMerge,
                     core::kStrategyDsatur, core::kStrategyExact};
}

StrategyId StrategyRegistry::add(std::unique_ptr<SolverStrategy> strategy) {
  WDAG_REQUIRE(strategy != nullptr, "StrategyRegistry::add: null strategy");
  const std::string name = strategy->name();
  WDAG_REQUIRE(!name.empty(), "StrategyRegistry::add: empty strategy name");
  WDAG_REQUIRE(!find(name).has_value(),
               "StrategyRegistry::add: duplicate strategy name '" + name + "'");
  const auto id = static_cast<StrategyId>(strategies_.size());
  strategies_.push_back(std::move(strategy));
  // Newest strategies dispatch first, so a user backend can shadow the
  // built-ins on exactly the hosts it declares applicable.
  dispatch_order_.insert(dispatch_order_.begin(), id);
  return id;
}

const SolverStrategy& StrategyRegistry::at(StrategyId id) const {
  WDAG_REQUIRE(id < strategies_.size(),
               "StrategyRegistry::at: unknown strategy id");
  return *strategies_[id];
}

std::optional<StrategyId> StrategyRegistry::find(std::string_view name) const {
  for (StrategyId id = 0; id < strategies_.size(); ++id) {
    if (strategies_[id]->name() == name) return id;
  }
  return std::nullopt;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(strategies_.size());
  for (const auto& s : strategies_) out.push_back(s->name());
  return out;
}

StrategyId StrategyRegistry::dispatch(const dag::DagReport& report) const {
  for (const StrategyId id : dispatch_order_) {
    if (strategies_[id]->applicable(report)) return id;
  }
  WDAG_DOMAIN(false, "StrategyRegistry::dispatch: no applicable strategy "
                     "(is the host a DAG?)");
  return 0;  // unreachable
}

const StrategyRegistry& builtin_registry() {
  static const StrategyRegistry registry;
  return registry;
}

SolveResponse solve_with(const StrategyRegistry& registry,
                         const paths::DipathFamily& family,
                         const core::SolveOptions& options,
                         std::optional<StrategyId> force,
                         core::SolveScratch* scratch) {
  const util::Timer timer;
  SolveResponse resp;
  resp.paths = family.size();
  resp.report = dag::classify(family.graph());
  WDAG_DOMAIN(resp.report.is_dag, "solve: the host graph must be a DAG");

  core::SolveScratch* arena = scratch != nullptr ? scratch : options.scratch;
  if (arena == nullptr) {
    thread_local core::SolveScratch fallback;
    arena = &fallback;
  }

  if (force.has_value()) {
    WDAG_REQUIRE(*force < registry.size(),
                 "solve: forced strategy id is not registered");
  }
  const StrategyId chosen = force.value_or(registry.dispatch(resp.report));
  // When dispatch (not force) picked a strategy, its applicability
  // predicate over the classification already proved the preconditions —
  // structural strategies skip their own re-verification then.
  const StrategyContext ctx{resp.report, options, *arena,
                            /*preverified=*/!force.has_value()};

  const SolverStrategy& strategy = registry.at(chosen);
  StrategyResult r = strategy.solve(family, ctx);
  resp.coloring = std::move(r.coloring);
  resp.wavelengths = r.wavelengths;
  resp.load = r.load.has_value() ? *r.load : paths::max_load(family);
  resp.strategy = chosen;
  resp.strategy_name = strategy.name();
  // pi is a lower bound on w, so matching it is a proof of minimality
  // whatever the strategy claims.
  resp.optimal = r.optimal || resp.wavelengths == resp.load;
  resp.diagnostics = std::move(r.note);

  bool validated = strategy.self_validating();

  // Optional exact certification / improvement for small instances, between
  // pi and the strategy's own coloring. A built-in's reported load is pi; a
  // registered strategy's is unchecked, so pi is recomputed for it.
  if (!resp.optimal && options.exact_threshold > 0 &&
      family.size() <= options.exact_threshold &&
      chosen != core::kStrategyExact) {
    const SolverStrategy& exact = registry.at(core::kStrategyExact);
    const std::size_t pi = chosen < core::kBuiltinStrategyCount
                               ? resp.load
                               : paths::max_load(family);
    arena->conflict_graph.rebuild(family);
    conflict::ChromaticResult e =
        exact_coloring(arena->conflict_graph, ctx, pi, &resp.coloring);
    if (e.proven && e.chromatic_number <= resp.wavelengths) {
      resp.coloring = std::move(e.coloring);
      resp.wavelengths = e.chromatic_number;
      resp.strategy = core::kStrategyExact;
      resp.strategy_name = exact.name();
      resp.optimal = true;
      validated = exact.self_validating();
    }
  }

  if (!validated) {
    WDAG_ASSERT(conflict::is_valid_assignment(family, resp.coloring),
                "solve: strategy '" + resp.strategy_name +
                    "' returned an invalid assignment");
    // The claimed wavelength count must match the coloring, or the
    // optimality verdict (w == pi) above could certify a lie.
    WDAG_ASSERT(conflict::num_colors(resp.coloring) == resp.wavelengths,
                "solve: strategy '" + resp.strategy_name +
                    "' claimed a wavelength count its coloring does not use");
  }
  resp.millis = timer.millis();
  return resp;
}

void solve_into_entry(core::BatchEntry& entry,
                      const StrategyRegistry& registry,
                      const paths::DipathFamily& family,
                      const core::SolveOptions& options,
                      std::optional<StrategyId> force,
                      core::SolveScratch& scratch, bool keep_coloring) {
  const util::Timer timer;
  try {
    SolveResponse r = solve_with(registry, family, options, force, &scratch);
    entry.strategy = r.strategy;
    entry.paths = r.paths;
    entry.load = r.load;
    entry.wavelengths = r.wavelengths;
    entry.optimal = r.optimal;
    if (keep_coloring) entry.coloring = std::move(r.coloring);
  } catch (const std::exception& e) {
    entry.failed = true;
    entry.error = e.what();
    entry.paths = family.size();
  }
  entry.millis = timer.millis();
}

}  // namespace wdag::api
