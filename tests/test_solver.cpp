// Tests for the canonical solve pipeline (api::solve_with over the
// built-in registry) — dispatch, forcing, certification, domain checks.

#include <gtest/gtest.h>

#include <string>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "core/solver.hpp"
#include "gen/family_gen.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_dag.hpp"
#include "gen/workloads.hpp"
#include "helpers.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag::core;
using wdag::paths::Dipath;
using wdag::paths::DipathFamily;

TEST(SolverTest, DispatchesToTheorem1OnCleanDags) {
  const auto g = wdag::test::chain(5);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1, 2}));
  fam.add(Dipath({1, 2, 3}));
  const auto res = wdag::test::solve_builtin(fam);
  EXPECT_EQ(res.strategy, kStrategyTheorem1);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.wavelengths, res.load);
  EXPECT_TRUE(res.report.wavelengths_equal_load());
}

TEST(SolverTest, DispatchesToSplitMergeOnUppCycles) {
  const auto inst = wdag::gen::theorem2_instance(3);
  const auto res = wdag::test::solve_builtin(inst.family);
  // Exact certification may upgrade the strategy; either way the coloring
  // is valid and uses at most ceil(4/3 * pi) colors.
  EXPECT_TRUE(res.strategy == kStrategySplitMerge ||
              res.strategy == kStrategyExact);
  EXPECT_TRUE(wdag::conflict::is_valid_assignment(inst.family, res.coloring));
  EXPECT_EQ(res.wavelengths, 3u);  // chi(C7) == 3, and 3 == ceil(4/3 * 2)
}

TEST(SolverTest, DispatchesToDsaturOnGeneralDags) {
  const auto inst = wdag::gen::figure3_instance();
  SolveOptions opt;
  opt.exact_threshold = 0;  // keep the heuristic result
  const auto res = wdag::test::solve_builtin(inst.family, opt);
  EXPECT_EQ(res.strategy, kStrategyDsatur);
  EXPECT_TRUE(wdag::conflict::is_valid_assignment(inst.family, res.coloring));
}

TEST(SolverTest, ExactCertificationUpgradesSmallInstances) {
  const auto inst = wdag::gen::figure3_instance();
  const auto res =
      wdag::test::solve_builtin(inst.family);  // default options allow exact
  EXPECT_EQ(res.wavelengths, 3u);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.strategy, kStrategyExact);
}

TEST(SolverTest, ForcedStrategyIsRespected) {
  const auto g = wdag::test::chain(5);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  fam.add(Dipath({1, 2}));
  for (const StrategyId id : {kStrategyTheorem1, kStrategySplitMerge,
                              kStrategyDsatur, kStrategyExact}) {
    const auto res = wdag::test::solve_builtin(fam, {}, id);
    EXPECT_EQ(res.wavelengths, 2u) << builtin_strategy_name(id);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
  }
}

TEST(SolverTest, ForcedTheorem1StillChecksDomain) {
  const auto inst = wdag::gen::figure3_instance();
  EXPECT_THROW(wdag::test::solve_builtin(inst.family, {}, kStrategyTheorem1),
               wdag::DomainError);
}

TEST(SolverTest, RejectsNonDagHosts) {
  const auto g = wdag::test::directed_triangle();
  DipathFamily fam(g);
  fam.add(Dipath({0}));
  EXPECT_THROW(wdag::test::solve_builtin(fam), wdag::DomainError);
}

TEST(SolverTest, Figure1NeedsKColors) {
  // The unbounded-ratio example: pi == 2 but w == k.
  for (std::size_t k : {3u, 5u, 7u}) {
    const auto inst = wdag::gen::figure1_pathological(k);
    const auto res = wdag::test::solve_builtin(inst.family);
    EXPECT_EQ(res.load, 2u);
    EXPECT_EQ(res.wavelengths, k);
    EXPECT_TRUE(res.optimal);  // exact certification fires (small instance)
  }
}

TEST(SolverTest, BuiltinStrategyNames) {
  EXPECT_EQ(builtin_strategy_name(kStrategyTheorem1), "theorem1");
  EXPECT_EQ(builtin_strategy_name(kStrategySplitMerge), "split-merge");
  EXPECT_EQ(builtin_strategy_name(kStrategyDsatur), "dsatur");
  EXPECT_EQ(builtin_strategy_name(kStrategyExact), "exact");
}

TEST(SolverTest, ReportIsPopulated) {
  const auto inst = wdag::gen::havet_instance();
  const auto res = wdag::test::solve_builtin(inst.family);
  EXPECT_TRUE(res.report.is_dag);
  EXPECT_TRUE(res.report.is_upp);
  EXPECT_EQ(res.report.internal_cycles, 1u);
}

TEST(SolverTest, RandomDagsAlwaysGetValidColorings) {
  wdag::util::Xoshiro256 rng(314);
  for (int trial = 0; trial < 12; ++trial) {
    const auto g = wdag::gen::random_dag(rng, 20, 0.15);
    if (g.num_arcs() == 0) continue;
    const auto fam = wdag::gen::random_walk_family(rng, g, 18, 1, 5);
    const auto res = wdag::test::solve_builtin(fam);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
    EXPECT_GE(res.wavelengths, res.load);
  }
}

// The DSATUR strategy colours over twin classes and reports pi itself.
// Dispatched and forced, its answer must be the dipath kernel's colouring,
// normalized, with pi from paths::max_load.
TEST(SolverTest, DsaturStrategyAnswersWithTheDipathKernelsColoring) {
  SolveOptions opt;
  opt.exact_threshold = 0;  // keep DSATUR's own colouring
  std::size_t dispatched = 0;
  for (const std::string& name : wdag::gen::workload_names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (std::size_t i = 0; i < 200; ++i) {
        wdag::util::Xoshiro256 rng((seed << 32) | i);
        const auto inst = wdag::gen::workload_instance(name, {}, rng);
        auto expected = wdag::conflict::dsatur_coloring(
            wdag::conflict::ConflictGraph(inst.family));
        const std::size_t k = wdag::conflict::normalize_colors(expected);
        const std::size_t pi = wdag::paths::max_load(inst.family);
        const std::string where =
            name + " seed " + std::to_string(seed) + " draw " +
            std::to_string(i);
        const auto forced =
            wdag::test::solve_builtin(inst.family, opt, kStrategyDsatur);
        EXPECT_EQ(forced.coloring, expected) << where << " (forced)";
        EXPECT_EQ(forced.wavelengths, k) << where << " (forced)";
        EXPECT_EQ(forced.load, pi) << where << " (forced)";
        const auto res = wdag::test::solve_builtin(inst.family, opt);
        if (res.strategy != kStrategyDsatur) continue;
        ++dispatched;
        EXPECT_EQ(res.coloring, expected) << where;
        EXPECT_EQ(res.wavelengths, k) << where;
        EXPECT_EQ(res.load, pi) << where;
      }
    }
  }
  EXPECT_GT(dispatched, 1000u);
}

}  // namespace
