// Unit tests for conflict-graph construction.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "conflict/conflict_graph.hpp"
#include "gen/paper_instances.hpp"
#include "gen/workloads.hpp"
#include "helpers.hpp"
#include "paths/dipath.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using wdag::conflict::ConflictGraph;
using wdag::paths::Dipath;
using wdag::paths::DipathFamily;

TEST(ConflictGraphTest, EmptyFamily) {
  const auto g = wdag::test::chain(3);
  const ConflictGraph cg{DipathFamily(g)};
  EXPECT_EQ(cg.size(), 0u);
  EXPECT_EQ(cg.num_edges(), 0u);
}

TEST(ConflictGraphTest, ChainOverlaps) {
  const auto g = wdag::test::chain(5);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  fam.add(Dipath({1, 2}));
  fam.add(Dipath({3}));
  const ConflictGraph cg(fam);
  EXPECT_TRUE(cg.adjacent(0, 1));
  EXPECT_FALSE(cg.adjacent(0, 2));
  EXPECT_FALSE(cg.adjacent(1, 2));
  EXPECT_EQ(cg.num_edges(), 1u);
  EXPECT_EQ(cg.degree(0), 1u);
  EXPECT_EQ(cg.degree(2), 0u);
}

TEST(ConflictGraphTest, SelfIsNeverAdjacent) {
  const auto g = wdag::test::chain(3);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1}));
  const ConflictGraph cg(fam);
  EXPECT_FALSE(cg.adjacent(0, 0));
}

TEST(ConflictGraphTest, IdenticalCopiesConflict) {
  const auto g = wdag::test::chain(3);
  DipathFamily fam(g);
  fam.add(Dipath({0}));
  fam.add(Dipath({0}));
  const ConflictGraph cg(fam);
  EXPECT_TRUE(cg.adjacent(0, 1));
}

TEST(ConflictGraphTest, Figure3IsC5) {
  const auto inst = wdag::gen::figure3_instance();
  const ConflictGraph cg(inst.family);
  ASSERT_EQ(cg.size(), 5u);
  EXPECT_EQ(cg.num_edges(), 5u);
  for (std::size_t v = 0; v < 5; ++v) EXPECT_EQ(cg.degree(v), 2u) << v;
  // C5 (odd cycle): exactly the paper's example.
  EXPECT_TRUE(cg.adjacent(0, 1));
  EXPECT_TRUE(cg.adjacent(1, 2));
  EXPECT_TRUE(cg.adjacent(2, 3));
  EXPECT_TRUE(cg.adjacent(3, 4));
  EXPECT_TRUE(cg.adjacent(4, 0));
}

TEST(ConflictGraphTest, Figure1IsComplete) {
  for (std::size_t k : {2u, 4u, 6u}) {
    const auto inst = wdag::gen::figure1_pathological(k);
    const ConflictGraph cg(inst.family);
    ASSERT_EQ(cg.size(), k);
    EXPECT_EQ(cg.num_edges(), k * (k - 1) / 2) << "k=" << k;
  }
}

TEST(ConflictGraphTest, ExplicitEdgeListConstructor) {
  const ConflictGraph cg(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(cg.adjacent(0, 1));
  EXPECT_TRUE(cg.adjacent(3, 2));
  EXPECT_FALSE(cg.adjacent(1, 2));
  EXPECT_EQ(cg.num_edges(), 2u);
}

TEST(ConflictGraphTest, ExplicitEdgeListValidation) {
  EXPECT_THROW(ConflictGraph(2, {{0, 2}}), wdag::InvalidArgument);
  EXPECT_THROW(ConflictGraph(2, {{1, 1}}), wdag::InvalidArgument);
}

TEST(ConflictGraphTest, RebuildFromGroupsMakesEachGroupAClique) {
  // Groups {0,1,2}, {}, {3}, {2,3,4}: edges 01 02 12 23 24 34.
  const std::vector<std::uint32_t> offsets = {0, 3, 3, 4, 7};
  const std::vector<std::uint32_t> ids = {0, 1, 2, 3, 2, 3, 4};
  ConflictGraph cg;
  cg.rebuild_from_groups(6, offsets, ids);
  const ConflictGraph expected(
      6, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}});
  ASSERT_EQ(cg.size(), 6u);
  EXPECT_EQ(cg.num_edges(), expected.num_edges());
  for (std::size_t u = 0; u < 6; ++u) {
    EXPECT_EQ(cg.degree(u), expected.degree(u)) << u;
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_EQ(cg.adjacent(u, v), expected.adjacent(u, v)) << u << "," << v;
    }
  }
  EXPECT_THROW(cg.rebuild_from_groups(4, offsets, ids),
               wdag::InvalidArgument);  // id 4 in a 4-vertex graph
  EXPECT_THROW(cg.rebuild_from_groups(6, {0, 3, 2}, ids),
               wdag::InvalidArgument);  // falling offsets
  EXPECT_THROW(cg.rebuild_from_groups(6, {0, 8}, ids),
               wdag::InvalidArgument);  // past the ids
}

TEST(ConflictGraphTest, NeighborsBitset) {
  const ConflictGraph cg(5, {{0, 1}, {0, 2}, {0, 4}});
  const auto idx = cg.neighbors(0).to_indices();
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 2, 4}));
}

// Every batch arena rebuilds one graph per instance over families of
// different sizes. Rebuilding in place through 130 -> 24 -> 65 -> empty ->
// 130 paths (crossing word boundaries in both directions) must leave the
// same rows and cached counts as a freshly constructed graph, and a row
// bit must be set exactly when the two dipaths share an arc.
TEST(ConflictGraphTest, RebuildInPlaceMatchesAFreshGraphOnEveryFamily) {
  std::size_t pairwise_groups = 0;
  std::size_t mask_groups = 0;
  for (const std::string& name : wdag::gen::workload_names()) {
    wdag::util::Xoshiro256 rng(0x4EB1D + std::hash<std::string>{}(name));
    ConflictGraph reused;
    for (const std::size_t count : {130, 24, 65, 0, 130}) {
      SCOPED_TRACE("family=" + name + " paths=" + std::to_string(count));
      wdag::gen::WorkloadParams params;
      params.paths = count == 0 ? 24 : count;
      const wdag::gen::Instance inst =
          wdag::gen::workload_instance(name, params, rng);
      const DipathFamily family =
          count == 0 ? DipathFamily(*inst.graph) : inst.family;

      reused.rebuild(family);
      const ConflictGraph fresh(family);
      const std::size_t n = fresh.size();
      ASSERT_EQ(reused.size(), n);
      EXPECT_EQ(reused.num_edges(), fresh.num_edges());
      EXPECT_EQ(reused.max_degree(), fresh.max_degree());
      for (std::size_t u = 0; u < n; ++u) {
        EXPECT_EQ(reused.degree(u), fresh.degree(u)) << "u=" << u;
        const auto got = reused.neighbors(u);
        const auto want = fresh.neighbors(u);
        ASSERT_EQ(got.num_words(), (n + 63) / 64);
        for (std::size_t w = 0; w < got.num_words(); ++w) {
          EXPECT_EQ(got.word(w), want.word(w)) << "u=" << u << " w=" << w;
        }
      }

      std::size_t wrong = 0;
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = 0; v < n; ++v) {
          const bool share = u != v && !wdag::paths::shared_arcs(
                                             family.path(u), family.path(v))
                                             .empty();
          wrong += reused.adjacent(u, v) != share ? 1 : 0;
        }
      }
      EXPECT_EQ(wrong, 0u);

      // Which build route each arc group takes (the rule in rebuild()):
      // both must run somewhere for this test to cover the pool writes.
      const std::size_t words = (n + 63) / 64;
      wdag::paths::for_each_arc_group(
          family, [&](const wdag::paths::PathId*, std::size_t g) {
            if (g < 2) return;
            ++(g * (g - 1) <= (g + 2) * words ? pairwise_groups : mask_groups);
          });
    }
  }
  EXPECT_GT(pairwise_groups, 0u);
  EXPECT_GT(mask_groups, 0u);
}

}  // namespace
