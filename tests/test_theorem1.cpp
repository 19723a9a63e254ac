// Tests for the Theorem 1 constructive colorer: w == pi on DAGs without
// internal cycle, for EVERY family of dipaths.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "conflict/conflict_graph.hpp"
#include "conflict/exact_color.hpp"
#include "core/theorem1.hpp"
#include "gen/family_gen.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_dag.hpp"
#include "gen/workloads.hpp"
#include "helpers.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using wdag::core::color_equal_load;
using wdag::paths::Dipath;
using wdag::paths::DipathFamily;

TEST(Theorem1Test, EmptyFamily) {
  const auto g = wdag::test::chain(3);
  const auto res = color_equal_load(DipathFamily(g));
  EXPECT_EQ(res.wavelengths, 0u);
  EXPECT_EQ(res.load, 0u);
  EXPECT_TRUE(res.coloring.empty());
}

TEST(Theorem1Test, SinglePath) {
  const auto g = wdag::test::chain(5);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1, 2, 3}));
  const auto res = color_equal_load(fam);
  EXPECT_EQ(res.wavelengths, 1u);
  EXPECT_EQ(res.load, 1u);
}

TEST(Theorem1Test, StackedIntervalsOnAChain) {
  // Interval-graph coloring on a path: heavy overlap in the middle.
  const auto g = wdag::test::chain(8);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1, 2, 3}));
  fam.add(Dipath({2, 3, 4}));
  fam.add(Dipath({3, 4, 5, 6}));
  fam.add(Dipath({1, 2, 3, 4, 5}));
  fam.add(Dipath({6}));
  const auto res = color_equal_load(fam);
  EXPECT_EQ(res.load, 4u);  // arc 3 carries paths 0, 1, 2 and 3
  EXPECT_EQ(res.wavelengths, 4u);
  EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
}

TEST(Theorem1Test, IdenticalCopiesGetDistinctColors) {
  const auto g = wdag::test::chain(4);
  DipathFamily fam(g);
  for (int i = 0; i < 4; ++i) fam.add(Dipath({1, 2}));
  const auto res = color_equal_load(fam);
  EXPECT_EQ(res.load, 4u);
  EXPECT_EQ(res.wavelengths, 4u);
  std::set<std::uint32_t> colors(res.coloring.begin(), res.coloring.end());
  EXPECT_EQ(colors.size(), 4u);
}

TEST(Theorem1Test, DiamondMulticommodity) {
  // The plain diamond has an oriented cycle but no internal one, so the
  // equality still holds there.
  const auto g = wdag::test::diamond();
  DipathFamily fam(g);
  fam.add(Dipath({g.find_arc(0, 1), g.find_arc(1, 3)}));
  fam.add(Dipath({g.find_arc(0, 2), g.find_arc(2, 3)}));
  fam.add(Dipath({g.find_arc(0, 1)}));
  fam.add(Dipath({g.find_arc(2, 3)}));
  const auto res = color_equal_load(fam);
  EXPECT_EQ(res.load, 2u);
  EXPECT_EQ(res.wavelengths, 2u);
}

TEST(Theorem1Test, RejectsInternalCycleGraphs) {
  const auto inst = wdag::gen::figure3_instance();
  EXPECT_THROW(color_equal_load(inst.family), wdag::DomainError);
}

TEST(Theorem1Test, RejectsNonDags) {
  const auto g = wdag::test::directed_triangle();
  DipathFamily fam(g);
  fam.add(Dipath({0}));
  EXPECT_THROW(color_equal_load(fam), wdag::DomainError);
}

TEST(Theorem1Test, RootedTreeMulticastEqualsLoad) {
  // The paper's §1 remark: for rooted trees w == pi for any family.
  wdag::util::Xoshiro256 rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = wdag::gen::random_out_tree(rng, 40);
    const auto fam = wdag::gen::multicast_family(g, 0);
    const auto res = color_equal_load(fam);
    EXPECT_EQ(res.wavelengths, res.load);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
  }
}

TEST(Theorem1Test, EqualityOnRandomTreeWalks) {
  wdag::util::Xoshiro256 rng(43);
  for (int trial = 0; trial < 15; ++trial) {
    const auto g = wdag::gen::random_out_tree(rng, 30);
    const auto fam = wdag::gen::random_walk_family(rng, g, 25, 1, 8);
    const auto res = color_equal_load(fam);
    EXPECT_EQ(res.wavelengths, wdag::paths::max_load(fam));
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
  }
}

// --- Property sweep: random internal-cycle-free DAGs ----------------------

struct SweepParam {
  std::uint64_t seed;
  std::size_t n;
  double p;
  std::size_t paths;
};

class Theorem1Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Theorem1Sweep, WavelengthsEqualLoadAndMatchExactChromatic) {
  const auto param = GetParam();
  wdag::util::Xoshiro256 rng(param.seed);
  const auto g =
      wdag::gen::random_no_internal_cycle_dag(rng, param.n, param.p);
  if (g.num_arcs() == 0) GTEST_SKIP() << "degenerate draw";
  const auto fam =
      wdag::gen::random_walk_family(rng, g, param.paths, 1, 6);
  const auto res = color_equal_load(fam);

  // Constructive equality.
  EXPECT_EQ(res.wavelengths, res.load);
  EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));

  // Certify optimality against the exact chromatic number when feasible.
  if (fam.size() <= 40) {
    const wdag::conflict::ConflictGraph cg(fam);
    const auto exact = wdag::conflict::chromatic_number(cg);
    ASSERT_TRUE(exact.proven);
    EXPECT_EQ(exact.chromatic_number, res.wavelengths)
        << "Theorem 1 result is not the true chromatic number";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNoInternalCycle, Theorem1Sweep,
    ::testing::Values(SweepParam{1, 12, 0.15, 10}, SweepParam{2, 12, 0.3, 15},
                      SweepParam{3, 18, 0.12, 20}, SweepParam{4, 18, 0.25, 25},
                      SweepParam{5, 24, 0.1, 20}, SweepParam{6, 24, 0.2, 30},
                      SweepParam{7, 30, 0.08, 25}, SweepParam{8, 30, 0.15, 35},
                      SweepParam{9, 40, 0.06, 30}, SweepParam{10, 40, 0.1, 40},
                      SweepParam{11, 15, 0.4, 40}, SweepParam{12, 20, 0.35, 50},
                      SweepParam{13, 50, 0.05, 30}, SweepParam{14, 10, 0.5, 60},
                      SweepParam{15, 60, 0.04, 45}));

TEST(Theorem1Test, ChainRecoloringsAreCountedAndBounded) {
  // A construction that forces at least one alpha/beta chain would be
  // fragile to pin down; instead check the stats fields are consistent.
  wdag::util::Xoshiro256 rng(99);
  const auto g = wdag::gen::random_no_internal_cycle_dag(rng, 30, 0.2);
  const auto fam = wdag::gen::random_walk_family(rng, g, 50, 1, 8);
  const auto res = color_equal_load(fam);
  EXPECT_LE(res.chain_recolorings, 50u * g.num_arcs());
  if (res.chain_recolorings == 0) {
    EXPECT_EQ(res.paths_flipped, 0u);
  }
  if (res.paths_flipped > 0) {
    EXPECT_GE(res.paths_flipped, res.chain_recolorings);
  }
}

// --- Golden digests of the replay's choices ------------------------------
//
// Theorem 1 fixes the count (w == pi) but not which colour each dipath
// gets: that follows from Kahn's arc order, the (path id, position)
// incidence order and the chain rule. These digests pin the colouring and
// the chain statistics over fixed pools, so a rewrite of the replay must
// reproduce it exactly.

/// FNV-1a over 64-bit words, folded across a whole pool.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
};

TEST(Theorem1GoldenTest, ChoicesMatchRecordedDigests) {
  struct GoldenPool {
    const char* family;
    std::uint64_t seed;
    std::size_t draws;
    std::uint64_t digest;
  };
  const GoldenPool pools[] = {
      {"tree", 1, 2048, 0x32da5dd0fd4378b8ULL},
      {"no-internal", 1, 2048, 0x176335c712291a0aULL},
  };
  for (const GoldenPool& pool : pools) {
    Fnv1a h;
    for (std::size_t i = 0; i < pool.draws; ++i) {
      wdag::util::Xoshiro256 rng((pool.seed << 32) | i);
      const auto inst = wdag::gen::workload_instance(pool.family, {}, rng);
      const auto res = color_equal_load(inst.family);
      h.add(res.coloring.size());
      for (const auto c : res.coloring) h.add(c);
      h.add(res.chain_recolorings);
      h.add(res.paths_flipped);
    }
    EXPECT_EQ(h.h, pool.digest)
        << pool.family << " seed " << pool.seed << ": 0x" << std::hex << h.h;
  }
}

}  // namespace
