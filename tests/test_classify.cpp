// Unit tests for the structural classifier driving solver dispatch, a
// differential check of the host index it reads against references kept
// here, and an allocation guard on the warm index.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "dag/classify.hpp"
#include "dag/internal_cycle.hpp"
#include "dag/upp.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_dag.hpp"
#include "gen/upp_gen.hpp"
#include "gen/workloads.hpp"
#include "graph/topo.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

// Every global operator new in this binary counts itself, so the
// allocation test below can hold a call to a count, not a clock.
namespace {
std::atomic<std::size_t> heap_allocations{0};
}  // namespace

// Out of line, so GCC does not pair the malloc() and free() it would see.
[[gnu::noinline]] void* operator new(std::size_t size) {
  heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace wdag::dag;
using wdag::graph::ArcId;
using wdag::graph::Digraph;
using wdag::graph::DigraphBuilder;
using wdag::graph::VertexId;
using wdag::util::Xoshiro256;

TEST(ClassifyTest, Chain) {
  const auto r = classify(wdag::test::chain(5));
  EXPECT_TRUE(r.is_dag);
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 0u);
  EXPECT_TRUE(r.wavelengths_equal_load());
  EXPECT_FALSE(r.theorem6_applies());
  EXPECT_EQ(r.num_vertices, 5u);
  EXPECT_EQ(r.num_arcs, 4u);
  EXPECT_EQ(r.num_sources, 1u);
  EXPECT_EQ(r.num_sinks, 1u);
}

TEST(ClassifyTest, DiamondEqualityRegimeButNotUpp) {
  const auto r = classify(wdag::test::diamond());
  EXPECT_TRUE(r.is_dag);
  EXPECT_FALSE(r.is_upp);
  EXPECT_TRUE(r.wavelengths_equal_load());
}

TEST(ClassifyTest, GuardedDiamondLeavesEqualityRegime) {
  const auto r = classify(wdag::test::guarded_diamond());
  EXPECT_FALSE(r.wavelengths_equal_load());
  EXPECT_EQ(r.internal_cycles, 1u);
}

TEST(ClassifyTest, Theorem6Regime) {
  const auto inst = wdag::gen::theorem2_instance(3);
  const auto r = classify(*inst.graph);
  EXPECT_TRUE(r.theorem6_applies());
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 1u);
}

TEST(ClassifyTest, MultiCycleUpp) {
  const auto inst =
      wdag::gen::upp_multi_cycle_skeleton(3, wdag::gen::UppCycleParams{});
  const auto r = classify(*inst.graph);
  EXPECT_TRUE(r.is_dag);
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 3u);
  EXPECT_FALSE(r.theorem6_applies());
}

TEST(ClassifyTest, NonDag) {
  const auto r = classify(wdag::test::directed_triangle());
  EXPECT_FALSE(r.is_dag);
  EXPECT_FALSE(r.wavelengths_equal_load());
  EXPECT_FALSE(r.theorem6_applies());
}

TEST(ClassifyTest, ReportStringMentionsRegime) {
  const auto r1 = report_to_string(classify(wdag::test::chain(3)));
  EXPECT_NE(r1.find("Theorem 1"), std::string::npos);
  const auto r2 =
      report_to_string(classify(*wdag::gen::theorem2_instance(2).graph));
  EXPECT_NE(r2.find("Theorem 6"), std::string::npos);
  const auto r3 = report_to_string(classify(wdag::test::directed_triangle()));
  EXPECT_NE(r3.find("is DAG:          no"), std::string::npos);
  const auto r4 =
      report_to_string(classify(*wdag::gen::figure1_pathological(3).graph));
  EXPECT_NE(r4.find("unbounded"), std::string::npos);
}

// --- The host index against references ------------------------------------

/// Kahn's algorithm over Digraph::out_arcs: sources in ascending id, then
/// each vertex as its last in-arc goes. nullopt on a directed cycle.
std::optional<std::vector<VertexId>> reference_kahn(const Digraph& g) {
  std::vector<std::size_t> indeg(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) indeg[v] = g.in_degree(v);
  std::vector<VertexId> order;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (indeg[v] == 0) order.push_back(v);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const ArcId a : g.out_arcs(order[i])) {
      if (--indeg[g.head(a)] == 0) order.push_back(g.head(a));
    }
  }
  if (order.size() != g.num_vertices()) return std::nullopt;
  return order;
}

/// Arcs between internal vertices that close a cycle under a plain
/// union-find (no ranks, full path walk): the cyclomatic count.
std::size_t reference_internal_cycles(const Digraph& g) {
  const auto internal = [&](VertexId v) {
    return g.in_degree(v) > 0 && g.out_degree(v) > 0;
  };
  std::vector<std::size_t> parent(g.num_vertices());
  for (std::size_t v = 0; v < parent.size(); ++v) parent[v] = v;
  const auto root = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v];
    return v;
  };
  std::size_t closing = 0;
  for (const wdag::graph::Arc& a : g.arcs()) {
    if (!internal(a.tail) || !internal(a.head)) continue;
    const std::size_t ra = root(a.tail);
    const std::size_t rb = root(a.head);
    if (ra == rb) {
      ++closing;
    } else {
      parent[ra] = rb;
    }
  }
  return closing;
}

/// Every reader of the host index against the references: classify's
/// report, has_internal_cycle, internal_cycle_count, is_upp,
/// topological_sort and arcs_in_tail_topo_order.
void expect_index_matches(const Digraph& g, const std::string& what) {
  SCOPED_TRACE(what);
  const DagReport r = classify(g);
  const auto order = reference_kahn(g);
  const std::size_t cycles = reference_internal_cycles(g);
  std::size_t sources = 0;
  std::size_t sinks = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.in_degree(v) == 0) ++sources;
    if (g.out_degree(v) == 0) ++sinks;
  }
  EXPECT_EQ(r.num_vertices, g.num_vertices());
  EXPECT_EQ(r.num_arcs, g.num_arcs());
  EXPECT_EQ(r.num_sources, sources);
  EXPECT_EQ(r.num_sinks, sinks);
  EXPECT_EQ(r.is_dag, order.has_value());
  EXPECT_EQ(internal_cycle_count(g), cycles);
  EXPECT_EQ(has_internal_cycle(g), cycles > 0);
  EXPECT_EQ(wdag::graph::topological_sort(g), order);
  if (!order.has_value()) {
    EXPECT_EQ(r.internal_cycles, 0u);
    EXPECT_FALSE(r.is_upp);
    EXPECT_THROW((void)is_upp(g), wdag::DomainError);
    EXPECT_THROW((void)wdag::graph::arcs_in_tail_topo_order(g),
                 wdag::InvalidArgument);
    return;
  }
  const bool upp = !find_upp_violation(g).has_value();
  EXPECT_EQ(r.internal_cycles, cycles);
  EXPECT_EQ(r.is_upp, upp);
  EXPECT_EQ(is_upp(g), upp);
  EXPECT_EQ(is_upp(g, *order), upp);
  std::vector<ArcId> removal;
  for (const VertexId v : *order) {
    for (const ArcId a : g.out_arcs(v)) removal.push_back(a);
  }
  EXPECT_EQ(wdag::graph::arcs_in_tail_topo_order(g), removal);
}

/// A digraph on n vertices with m arcs between uniform endpoints: parallel
/// arcs, directed cycles and isolated vertices all occur. With `acyclic`
/// every arc points up a random vertex permutation, so it is a DAG that
/// keeps the parallel arcs and the isolated vertices.
Digraph random_digraph(Xoshiro256& rng, std::size_t n, std::size_t m,
                       bool acyclic) {
  std::vector<VertexId> rank(n);
  for (VertexId v = 0; v < n; ++v) rank[v] = v;
  rng.shuffle(rank);
  DigraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    auto u = static_cast<VertexId>(rng.below(n));
    auto v = static_cast<VertexId>(rng.below(n));
    if (u == v) continue;
    if (acyclic && rank[u] > rank[v]) std::swap(u, v);
    b.add_arc(u, v);
  }
  return b.build();
}

TEST(ClassifyDifferentialTest, EveryWorkloadFamilySeeds1To300) {
  for (const std::string& family : wdag::gen::workload_names()) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      Xoshiro256 rng(seed);
      const auto inst = wdag::gen::workload_instance(family, {}, rng);
      expect_index_matches(*inst.graph,
                           family + " seed " + std::to_string(seed));
    }
  }
}

TEST(ClassifyDifferentialTest, RandomDigraphsWithCyclesAndParallelArcs) {
  Xoshiro256 rng(24);
  std::size_t cyclic = 0;
  std::size_t non_upp = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    // One draw in four spans several cone words.
    const std::size_t n = i % 4 == 3 ? 65 + rng.below(136) : 1 + rng.below(40);
    const std::size_t m = rng.below(3 * n);
    const Digraph g = random_digraph(rng, n, m, /*acyclic=*/i % 2 == 0);
    if (!reference_kahn(g).has_value()) {
      ++cyclic;
    } else if (find_upp_violation(g).has_value()) {
      ++non_upp;
    }
    expect_index_matches(g, "draw " + std::to_string(i));
  }
  // Both verdicts of both tests must be exercised.
  EXPECT_GT(cyclic, 100u);
  EXPECT_GT(non_upp, 100u);
}

TEST(ClassifyDifferentialTest, EmptyGraph) {
  expect_index_matches(DigraphBuilder().build(), "empty");
  const DagReport r = classify(DigraphBuilder().build());
  EXPECT_TRUE(r.is_dag);
  EXPECT_TRUE(r.is_upp);
  EXPECT_EQ(r.internal_cycles, 0u);
}

TEST(ClassifyDifferentialTest, AboveTheConeLimitTheDpDecides) {
  // 4,200 vertices: past the cone pass, so is_upp runs the path-count DP.
  constexpr std::size_t kN = 4200;
  DigraphBuilder tree(kN);
  for (VertexId v = 1; v < kN; ++v) tree.add_arc((v - 1) / 2, v);
  const Digraph out_tree = tree.build();
  expect_index_matches(out_tree, "binary out-tree");
  EXPECT_TRUE(classify(out_tree).is_upp);

  tree.add_arc(1, 5);  // 0 -> 1 -> 5 beside 0 -> 2 -> 5
  const Digraph reconverging = tree.build();
  expect_index_matches(reconverging, "out-tree plus one arc");
  EXPECT_FALSE(classify(reconverging).is_upp);

  Xoshiro256 rng(4200);
  const Digraph sparse = wdag::gen::random_dag(rng, kN, 0.0005);
  expect_index_matches(sparse, "sparse random DAG");
  EXPECT_GT(classify(sparse).internal_cycles, 0u);
}

// --- Heap allocations per call -------------------------------------------
//
// The host index keeps every table per thread, so once the tables have
// grown to the largest host of a pool, classify and the internal-cycle
// queries allocate nothing. (Above 4,096 vertices the UPP DP allocates
// its path counts; the pool stays below that.)

TEST(ClassifyAllocationTest, NothingOnceWarm) {
  std::vector<Digraph> pool;
  for (const std::string& family : wdag::gen::workload_names()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Xoshiro256 rng(seed);
      pool.push_back(*wdag::gen::workload_instance(family, {}, rng).graph);
    }
  }
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < 32; ++i) {
    pool.push_back(random_digraph(rng, 1 + rng.below(200), rng.below(400),
                                  /*acyclic=*/i % 2 == 0));
  }
  pool.push_back(DigraphBuilder().build());
  std::size_t cycles = 0;
  for (const Digraph& g : pool) {
    cycles += classify(g).internal_cycles + internal_cycle_count(g);
  }
  const std::size_t before = heap_allocations.load();
  std::size_t dags = 0;
  std::size_t upp = 0;
  for (const Digraph& g : pool) {
    const DagReport r = classify(g);
    dags += r.is_dag ? 1 : 0;
    upp += r.is_upp ? 1 : 0;
    cycles += internal_cycle_count(g) + (has_internal_cycle(g) ? 1 : 0);
  }
  EXPECT_EQ(heap_allocations.load() - before, 0u);
  // Every branch of the index ran.
  EXPECT_GT(dags, 0u);
  EXPECT_LT(dags, pool.size());
  EXPECT_GT(upp, 0u);
  EXPECT_LT(upp, dags);
  EXPECT_GT(cycles, 0u);
}

}  // namespace
