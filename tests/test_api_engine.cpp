// The public-API session object: engine lifecycle, request forms, the
// strategy registry (custom registration, dispatch precedence and
// applicability gating), and registry-sized batch stats.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "wdag/wdag.hpp"

namespace {

using namespace wdag;

/// A family of two arc-sharing dipaths on a chain host (Theorem 1 regime).
struct ChainInstance {
  graph::Digraph g = test::chain(4);
  paths::DipathFamily family{g};
  ChainInstance() {
    family.add_through({0, 1, 2});
    family.add_through({1, 2, 3});
  }
};

/// Colors path i with color i: always a valid assignment, never optimal
/// on conflicting families of > pi paths.
class RainbowStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "rainbow"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag;
  }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext&) const override {
    StrategyResult out;
    out.coloring.resize(family.size());
    for (std::size_t i = 0; i < family.size(); ++i) {
      out.coloring[i] = static_cast<std::uint32_t>(i);
    }
    out.wavelengths = family.size();
    return out;
  }
};

/// Applicable only to the split-merge regime (UPP with internal cycles).
class UppOnlyStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "upp-only"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag && r.is_upp && r.internal_cycles > 0;
  }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext&) const override {
    StrategyResult out;
    out.coloring.resize(family.size());
    for (std::size_t i = 0; i < family.size(); ++i) {
      out.coloring[i] = static_cast<std::uint32_t>(i);
    }
    out.wavelengths = family.size();
    return out;
  }
};

/// Returns a VALID rainbow coloring but lies about the wavelength count,
/// claiming w == pi — which would falsely certify optimality.
class LyingStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "liar"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag;
  }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext&) const override {
    StrategyResult out;
    out.coloring.resize(family.size());
    for (std::size_t i = 0; i < family.size(); ++i) {
      out.coloring[i] = static_cast<std::uint32_t>(i);
    }
    out.wavelengths = paths::max_load(family);  // the lie
    return out;
  }
};

/// Returns an invalid all-zero coloring whenever two paths conflict.
class BrokenStrategy final : public SolverStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "broken"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag;
  }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext&) const override {
    StrategyResult out;
    out.coloring.assign(family.size(), 0);
    out.wavelengths = 1;
    return out;
  }
};

/// A valid rainbow coloring with a claimed load that nothing checks.
class ClaimedLoadStrategy final : public SolverStrategy {
 public:
  explicit ClaimedLoadStrategy(std::size_t load) : load_(load) {}
  [[nodiscard]] std::string name() const override { return "claimed-load"; }
  [[nodiscard]] bool applicable(const dag::DagReport& r) const override {
    return r.is_dag;
  }
  [[nodiscard]] StrategyResult solve(const paths::DipathFamily& family,
                                     const StrategyContext&) const override {
    StrategyResult out;
    out.coloring.resize(family.size());
    for (std::size_t i = 0; i < family.size(); ++i) {
      out.coloring[i] = static_cast<std::uint32_t>(i);
    }
    out.wavelengths = family.size();
    out.load = load_;
    return out;
  }

 private:
  std::size_t load_;
};

/// An engine whose exact certification is disabled, so sub-optimal custom
/// results are returned as-is instead of being upgraded to "exact".
Engine uncertified_engine(std::size_t threads = 1) {
  EngineOptions options;
  options.threads = threads;
  options.solve.exact_threshold = 0;
  return Engine(options);
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

TEST(EngineLifecycleTest, OwnsAPoolOfTheRequestedSize) {
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  EXPECT_EQ(engine.threads(), 2u);
  // Built-ins are pre-registered at their fixed ids.
  EXPECT_EQ(engine.strategies().size(), core::kBuiltinStrategyCount);
  EXPECT_EQ(engine.strategies().find("theorem1"), core::kStrategyTheorem1);
  EXPECT_EQ(engine.strategies().find("split-merge"),
            core::kStrategySplitMerge);
  EXPECT_EQ(engine.strategies().find("dsatur"), core::kStrategyDsatur);
  EXPECT_EQ(engine.strategies().find("exact"), core::kStrategyExact);
}

TEST(EngineLifecycleTest, SubmitsAndBatchesInterleaveOnOneEngine) {
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  const ChainInstance inst;

  const SolveResponse first = engine.submit(SolveRequest::of(inst.family));
  const core::BatchReport batch =
      engine.run_batch(BatchRequest::generated("random-upp", 60));
  const SolveResponse second = engine.submit(SolveRequest::of(inst.family));

  EXPECT_EQ(batch.instance_count, 60u);
  EXPECT_EQ(batch.failure_count, 0u);
  EXPECT_EQ(first.wavelengths, second.wavelengths);
  EXPECT_EQ(first.strategy, second.strategy);
}

// ---------------------------------------------------------------------------
// Request forms.
// ---------------------------------------------------------------------------

TEST(EngineSubmitTest, InlineFamilyGetsTheorem1OnNoInternalCycleHosts) {
  Engine engine = uncertified_engine();
  const ChainInstance inst;
  const SolveResponse r = engine.submit(SolveRequest::of(inst.family));
  EXPECT_EQ(r.strategy, core::kStrategyTheorem1);
  EXPECT_EQ(r.strategy_name, "theorem1");
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.paths, 2u);
  EXPECT_EQ(r.wavelengths, r.load);
  EXPECT_TRUE(conflict::is_valid_assignment(inst.family, r.coloring));
}

TEST(EngineSubmitTest, AgreesWithDirectSolveAcrossEveryRegime) {
  Engine engine(EngineOptions{});
  util::Xoshiro256 rng(20260730);
  for (std::size_t i = 0; i < 40; ++i) {
    const gen::Instance inst = test::mixed_regime_instance(rng, i);
    const SolveResponse resp = engine.submit(SolveRequest::of(inst.family));
    const SolveResponse direct = test::solve_builtin(inst.family);
    EXPECT_EQ(resp.strategy, direct.strategy) << i;
    EXPECT_EQ(resp.wavelengths, direct.wavelengths) << i;
    EXPECT_EQ(resp.load, direct.load) << i;
    EXPECT_EQ(resp.optimal, direct.optimal) << i;
  }
}

TEST(EngineSubmitTest, GeneratedRequestMatchesTheWorkloadFactory) {
  Engine engine(EngineOptions{});
  const SolveResponse via_engine =
      engine.submit(SolveRequest::generated("c5", {}, 7));

  util::Xoshiro256 rng(7);
  const gen::Instance manual = gen::workload_instance("c5", {}, rng);
  const SolveResponse direct = test::solve_builtin(manual.family);
  EXPECT_EQ(via_engine.wavelengths, direct.wavelengths);
  EXPECT_EQ(via_engine.load, direct.load);
  EXPECT_EQ(via_engine.strategy, direct.strategy);
}

TEST(EngineSubmitTest, FileRequestRoundTripsAnInstance) {
  const ChainInstance inst;
  const std::string path = testing::TempDir() + "/wdag_api_instance.txt";
  {
    std::ofstream out(path);
    out << paths::to_instance_text(inst.family);
  }
  Engine engine(EngineOptions{});
  const SolveResponse from_file =
      engine.submit(SolveRequest::from_file(path));
  const SolveResponse inline_resp =
      engine.submit(SolveRequest::of(inst.family));
  EXPECT_EQ(from_file.wavelengths, inline_resp.wavelengths);
  EXPECT_EQ(from_file.load, inline_resp.load);
  EXPECT_EQ(from_file.strategy, inline_resp.strategy);
  std::remove(path.c_str());
}

TEST(EngineSubmitTest, RejectsEmptyAndAmbiguousRequests) {
  Engine engine(EngineOptions{});
  EXPECT_THROW((void)engine.submit(SolveRequest{}), wdag::InvalidArgument);

  const ChainInstance inst;
  SolveRequest both = SolveRequest::of(inst.family);
  both.file = "also-a-file.txt";
  EXPECT_THROW((void)engine.submit(both), wdag::InvalidArgument);
}

TEST(EngineSubmitTest, RejectsUnknownGeneratorAndStrategyNames) {
  Engine engine(EngineOptions{});
  EXPECT_THROW((void)engine.submit(SolveRequest::generated("no-such-gen")),
               wdag::InvalidArgument);
  const ChainInstance inst;
  SolveRequest req = SolveRequest::of(inst.family);
  req.force_strategy = "no-such-strategy";
  EXPECT_THROW((void)engine.submit(req), wdag::InvalidArgument);
}

TEST(EngineSubmitTest, NonDagHostsAreADomainError) {
  Engine engine(EngineOptions{});
  const graph::Digraph g = test::directed_triangle();
  paths::DipathFamily family(g);
  family.add_through({0, 1});
  EXPECT_THROW((void)engine.submit(SolveRequest::of(family)),
               wdag::DomainError);
}

TEST(EngineSubmitTest, ForceByNameRunsTheNamedStrategy) {
  Engine engine(EngineOptions{});
  const ChainInstance inst;
  SolveRequest req = SolveRequest::of(inst.family);
  req.force_strategy = "exact";
  const SolveResponse r = engine.submit(req);
  EXPECT_EQ(r.strategy, core::kStrategyExact);
  EXPECT_EQ(r.strategy_name, "exact");
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.wavelengths, r.load);
}

// ---------------------------------------------------------------------------
// Custom strategies.
// ---------------------------------------------------------------------------

TEST(EngineStrategyTest, RegisteredStrategyTakesDispatchPrecedence) {
  Engine engine = uncertified_engine();
  const StrategyId id = engine.register_strategy(
      std::make_unique<RainbowStrategy>());
  EXPECT_EQ(id, core::kBuiltinStrategyCount);
  EXPECT_EQ(engine.strategies().size(), core::kBuiltinStrategyCount + 1);
  EXPECT_EQ(engine.strategies().find("rainbow"), id);
  EXPECT_EQ(engine.strategies().names()[id], "rainbow");

  // Applicable to every DAG and newest in the registry: it shadows even
  // the Theorem-1 regime.
  const ChainInstance inst;
  const SolveResponse r = engine.submit(SolveRequest::of(inst.family));
  EXPECT_EQ(r.strategy, id);
  EXPECT_EQ(r.strategy_name, "rainbow");
  EXPECT_EQ(r.wavelengths, 2u);
  EXPECT_TRUE(conflict::is_valid_assignment(inst.family, r.coloring));
}

TEST(EngineStrategyTest, ApplicabilityGatesDispatchPerRegime) {
  Engine engine = uncertified_engine();
  const StrategyId id =
      engine.register_strategy(std::make_unique<UppOnlyStrategy>());

  // No internal cycle: the custom strategy is not applicable, Theorem 1
  // still wins.
  const ChainInstance chain_inst;
  EXPECT_EQ(engine.submit(SolveRequest::of(chain_inst.family)).strategy,
            core::kStrategyTheorem1);

  // UPP one-cycle host: the custom strategy shadows split-merge.
  util::Xoshiro256 rng(11);
  const gen::Instance upp =
      gen::random_upp_one_cycle_instance(rng, gen::UppCycleParams{}, 8);
  const SolveResponse r = engine.submit(SolveRequest::of(upp.family));
  EXPECT_EQ(r.strategy, id);
  EXPECT_EQ(r.strategy_name, "upp-only");
  EXPECT_TRUE(conflict::is_valid_assignment(upp.family, r.coloring));
}

TEST(EngineStrategyTest, DuplicateAndNullRegistrationsAreRejected) {
  Engine engine(EngineOptions{});
  EXPECT_THROW(engine.register_strategy(nullptr), wdag::InvalidArgument);
  EXPECT_NO_THROW(engine.register_strategy(std::make_unique<RainbowStrategy>()));
  EXPECT_THROW(engine.register_strategy(std::make_unique<RainbowStrategy>()),
               wdag::InvalidArgument);
}

TEST(EngineStrategyTest, InvalidCustomColoringsAreCaughtByValidation) {
  Engine engine = uncertified_engine();
  engine.register_strategy(std::make_unique<BrokenStrategy>());
  const ChainInstance inst;  // the two paths share arc 1 -> 2
  EXPECT_THROW((void)engine.submit(SolveRequest::of(inst.family)),
               wdag::InternalError);
}

TEST(EngineStrategyTest, CertificationDoesNotTrustAnInvalidColoring) {
  // With certification on, the strategy's coloring would be the exact
  // search's upper bound; an invalid one must still end in validation's
  // InternalError, not in the search rejecting its bounds.
  Engine engine(EngineOptions{});
  engine.register_strategy(std::make_unique<BrokenStrategy>());
  const ChainInstance inst;
  EXPECT_THROW((void)engine.submit(SolveRequest::of(inst.family)),
               wdag::InternalError);
}

TEST(EngineStrategyTest, CertificationDoesNotTrustAReportedLoad) {
  // Four arc-disjoint dipaths: pi = chi = 1, and the rainbow coloring uses
  // 4 colors. A claimed load above chi, whether below or above those 4,
  // must not become the exact search's lower bound.
  const graph::Digraph g = test::chain(5);
  paths::DipathFamily family(g);
  for (graph::VertexId v = 0; v + 1 < 5; ++v) family.add_through({v, v + 1});
  for (const std::size_t claimed : {3u, 6u}) {
    Engine engine(EngineOptions{});
    engine.register_strategy(std::make_unique<ClaimedLoadStrategy>(claimed));
    const SolveResponse r = engine.submit(SolveRequest::of(family));
    EXPECT_EQ(r.strategy, core::kStrategyExact) << "claimed " << claimed;
    EXPECT_EQ(r.wavelengths, 1u) << "claimed " << claimed;
    EXPECT_TRUE(r.optimal) << "claimed " << claimed;
    EXPECT_TRUE(conflict::is_valid_assignment(family, r.coloring));
  }
}

TEST(EngineStrategyTest, MisreportedWavelengthCountsAreCaughtByValidation) {
  Engine engine = uncertified_engine();
  engine.register_strategy(std::make_unique<LyingStrategy>());
  // Three paths with load 2: the rainbow coloring uses 3 colors while
  // the strategy claims pi == 2, which would self-certify optimality.
  const ChainInstance inst;
  paths::DipathFamily three(inst.g);
  three.add_through({0, 1, 2});
  three.add_through({1, 2, 3});
  three.add_through({2, 3});
  EXPECT_THROW((void)engine.submit(SolveRequest::of(three)),
               wdag::InternalError);
}

TEST(EngineStrategyTest, BatchStatsAreRegistrySized) {
  Engine engine = uncertified_engine(2);
  const StrategyId id =
      engine.register_strategy(std::make_unique<RainbowStrategy>());

  const ChainInstance inst;
  const std::vector<paths::DipathFamily> families(6, inst.family);
  const core::BatchReport report =
      engine.run_batch(BatchRequest::of(families));

  ASSERT_EQ(report.strategy_counts.size(), core::kBuiltinStrategyCount + 1);
  ASSERT_EQ(report.strategy_names.size(), core::kBuiltinStrategyCount + 1);
  EXPECT_EQ(report.strategy_names[id], "rainbow");
  EXPECT_EQ(report.count(id), 6u);
  EXPECT_EQ(report.count("rainbow"), 6u);
  EXPECT_EQ(report.count(core::kStrategyTheorem1), 0u);
  EXPECT_EQ(report.failure_count, 0u);
  // The custom strategy shows up in the rendered histogram and rows.
  const std::string histogram = report.histogram_table().to_csv();
  EXPECT_NE(histogram.find("rainbow"), std::string::npos);
  const std::string rows = report.rows_table(false).to_csv();
  EXPECT_NE(rows.find("rainbow"), std::string::npos);
}

TEST(EngineStrategyTest, BatchCanForceACustomStrategyByName) {
  Engine engine = uncertified_engine(2);
  engine.register_strategy(std::make_unique<UppOnlyStrategy>());

  // Force it everywhere, even where dispatch would never pick it.
  const ChainInstance inst;
  const std::vector<paths::DipathFamily> families(3, inst.family);
  BatchRequest request = BatchRequest::of(families);
  request.force_strategy = "upp-only";
  const core::BatchReport report = engine.run_batch(request);
  EXPECT_EQ(report.count("upp-only"), 3u);
  EXPECT_EQ(report.failure_count, 0u);
}

// ---------------------------------------------------------------------------
// Batch request plumbing.
// ---------------------------------------------------------------------------

TEST(EngineBatchTest, GeneratedBatchMatchesTheLegacyEntryPoint) {
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);

  BatchRequest request = BatchRequest::generated("random-upp", 80);
  request.options.seed = 4242;
  request.options.chunk = 8;
  const core::BatchReport via_engine = engine.run_batch(request);

  core::BatchOptions legacy_options;
  legacy_options.seed = 4242;
  legacy_options.chunk = 8;
  legacy_options.threads = 1;
  const core::BatchReport legacy = core::solve_generated_batch(
      80,
      [](util::Xoshiro256& rng, std::size_t) {
        return gen::workload_instance("random-upp", {}, rng);
      },
      core::SolveOptions{}, legacy_options);

  EXPECT_EQ(via_engine.rows_table(false).to_csv(),
            legacy.rows_table(false).to_csv());
  EXPECT_EQ(via_engine.strategy_counts, legacy.strategy_counts);
  EXPECT_EQ(via_engine.optimal_count, legacy.optimal_count);
}

TEST(EngineBatchTest, CustomGeneratorCallbackAndFailureCapture) {
  Engine engine(EngineOptions{});
  BatchRequest request;
  request.generate = [](util::Xoshiro256& rng, std::size_t index) {
    if (index == 2) throw wdag::InvalidArgument("instance 2 is cursed");
    return test::mixed_regime_instance(rng, index);
  };
  request.count = 5;
  const core::BatchReport report = engine.run_batch(request);
  EXPECT_EQ(report.instance_count, 5u);
  EXPECT_EQ(report.failure_count, 1u);
  ASSERT_EQ(report.entries.size(), 5u);
  EXPECT_TRUE(report.entries[2].failed);
  EXPECT_NE(report.entries[2].error.find("cursed"), std::string::npos);
}

TEST(EngineBatchTest, RejectsAmbiguousSources) {
  Engine engine(EngineOptions{});
  BatchRequest request = BatchRequest::generated("random-upp", 4);
  request.generate = [](util::Xoshiro256& rng, std::size_t i) {
    return test::mixed_regime_instance(rng, i);
  };
  EXPECT_THROW((void)engine.run_batch(request), wdag::InvalidArgument);

  // Pre-built families together with a generated source is ambiguous too.
  const ChainInstance inst;
  const std::vector<paths::DipathFamily> families(2, inst.family);
  BatchRequest mixed = BatchRequest::generated("random-upp", 4);
  mixed.families = families;
  EXPECT_THROW((void)engine.run_batch(mixed), wdag::InvalidArgument);
}

}  // namespace
