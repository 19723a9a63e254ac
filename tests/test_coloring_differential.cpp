// Differential tests pinning the word-parallel coloring kernels to the
// scalar reference implementations they replaced.
//
// The optimized DSATUR and first-fit greedy must produce *byte-identical*
// colorings — same values, same tie-breaking — as the original scalar
// code on every workload family, because downstream artifacts (batch CSVs,
// dispatch histograms, paper tables) are pinned to their exact output.
// The reference implementations below are verbatim ports of the pre-
// optimization code, deliberately using only neighbors()/count() so they
// share no code path with the rewritten kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "gen/workloads.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag;
using conflict::Coloring;
using conflict::ConflictGraph;
using util::Xoshiro256;

constexpr std::uint32_t kUncolored = UINT32_MAX;

/// Scalar first-fit greedy: O(n) bool-vector sweep per vertex (pre-PR).
Coloring reference_greedy(const ConflictGraph& cg,
                          const std::vector<std::size_t>& order) {
  Coloring colors(cg.size(), kUncolored);
  std::vector<bool> used;
  for (const std::size_t u : order) {
    used.assign(cg.size() + 1, false);
    const auto& row = cg.neighbors(u);
    for (std::size_t v = row.find_first(); v < cg.size();
         v = row.find_next(v)) {
      if (colors[v] != kUncolored) used[colors[v]] = true;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    colors[u] = c;
  }
  return colors;
}

/// Scalar DSATUR: n+1-bit saturation sets, O(n) argmax per step (pre-PR).
Coloring reference_dsatur(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  Coloring colors(n, kUncolored);
  std::vector<util::DynamicBitset> sat;
  sat.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sat.emplace_back(n + 1);

  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t best_sat = 0, best_deg = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (colors[v] != kUncolored) continue;
      const std::size_t s = sat[v].count();
      const std::size_t d = cg.neighbors(v).count();
      if (best == n || s > best_sat || (s == best_sat && d > best_deg)) {
        best = v;
        best_sat = s;
        best_deg = d;
      }
    }
    std::uint32_t c = 0;
    while (sat[best].test(c)) ++c;
    colors[best] = c;
    const auto& row = cg.neighbors(best);
    for (std::size_t v = row.find_first(); v < n; v = row.find_next(v)) {
      sat[v].set(c);
    }
  }
  return colors;
}

/// Pre-PR normalize_colors: first-appearance remap by linear scan.
std::size_t reference_normalize(Coloring& c) {
  std::vector<std::uint32_t> remap;
  for (auto& col : c) {
    const auto it = std::find(remap.begin(), remap.end(), col);
    if (it == remap.end()) {
      remap.push_back(col);
      col = static_cast<std::uint32_t>(remap.size() - 1);
    } else {
      col = static_cast<std::uint32_t>(it - remap.begin());
    }
  }
  return remap.size();
}

gen::WorkloadParams small_params() {
  gen::WorkloadParams p;
  p.size = 24;
  p.paths = 24;
  p.rows = 4;
  p.cols = 5;
  p.layers = 4;
  p.width = 3;
  p.dim = 3;
  p.stages = 3;
  p.k = 3;
  p.h = 2;
  return p;
}

/// Natural 0..n-1 order.
std::vector<std::size_t> natural_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

TEST(ColoringDifferentialTest, DsaturMatchesReferenceOnEveryFamily) {
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0xD5A70 + std::hash<std::string>{}(name));
    for (int round = 0; round < 4; ++round) {
      const gen::Instance inst = gen::workload_instance(name, p, rng);
      const ConflictGraph cg(inst.family);
      EXPECT_EQ(conflict::dsatur_coloring(cg), reference_dsatur(cg))
          << "family=" << name << " round=" << round;
    }
  }
}

// The families above stay within one 64-bit word per row, rank level and
// colour set, and use few colours. These graphs span several words:
// random-dag hosts with more than 128 dipaths, and explicit-edge
// G(200, p) graphs whose max degree is at least 64, where DSATUR uses
// more than 64 colours at p = 0.9. An indexing slip past word 0 shows
// here.
TEST(ColoringDifferentialTest, DsaturMatchesReferenceAcrossWords) {
  gen::WorkloadParams p;
  p.size = 60;
  p.density = 0.15;
  for (const std::size_t paths : {300, 350, 400}) {
    p.paths = paths;
    Xoshiro256 rng(0x3D5A7 + paths);
    for (int round = 0; round < 3; ++round) {
      const gen::Instance inst = gen::workload_instance("random-dag", p, rng);
      const ConflictGraph cg(inst.family);
      EXPECT_GT(cg.size(), 128u) << "paths=" << paths << " round=" << round;
      EXPECT_EQ(conflict::dsatur_coloring(cg), reference_dsatur(cg))
          << "paths=" << paths << " round=" << round;
    }
  }

  for (const double density : {0.5, 0.9}) {
    Xoshiro256 rng(0x6200);
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t u = 0; u < 200; ++u) {
      for (std::size_t v = u + 1; v < 200; ++v) {
        if (rng.chance(density)) edges.emplace_back(u, v);
      }
    }
    const ConflictGraph cg(200, edges);
    EXPECT_GE(cg.max_degree(), 64u) << "density=" << density;
    const Coloring c = conflict::dsatur_coloring(cg);
    if (density > 0.8) {
      EXPECT_GT(conflict::num_colors(c), 64u);
    }
    EXPECT_EQ(c, reference_dsatur(cg)) << "density=" << density;
  }
}

TEST(ColoringDifferentialTest, GreedyMatchesReferenceOnEveryFamily) {
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0x62EED + std::hash<std::string>{}(name));
    for (int round = 0; round < 4; ++round) {
      const gen::Instance inst = gen::workload_instance(name, p, rng);
      const ConflictGraph cg(inst.family);
      // Natural order and a deterministic shuffle.
      std::vector<std::size_t> order = natural_order(cg.size());
      EXPECT_EQ(conflict::greedy_coloring(cg, order),
                reference_greedy(cg, order))
          << "family=" << name << " round=" << round;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.index(i)]);
      }
      EXPECT_EQ(conflict::greedy_coloring(cg, order),
                reference_greedy(cg, order))
          << "family=" << name << " round=" << round << " (shuffled)";
    }
  }
}

TEST(ColoringDifferentialTest, DegreeAndMaxDegreeMatchRowCounts) {
  const gen::WorkloadParams p = small_params();
  for (const std::string& name : gen::workload_names()) {
    Xoshiro256 rng(0xDE6 + std::hash<std::string>{}(name));
    const gen::Instance inst = gen::workload_instance(name, p, rng);
    const ConflictGraph cg(inst.family);
    std::size_t max_deg = 0;
    for (std::size_t v = 0; v < cg.size(); ++v) {
      EXPECT_EQ(cg.degree(v), cg.neighbors(v).count());
      max_deg = std::max(max_deg, cg.degree(v));
    }
    EXPECT_EQ(cg.max_degree(), max_deg) << "family=" << name;
  }
}

TEST(ColoringDifferentialTest, NormalizeAndCountMatchReference) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 50; ++round) {
    Coloring c(1 + rng.index(60));
    const bool sparse = round % 5 == 0;
    for (auto& col : c) {
      // Sparse rounds use huge scattered ids to force the sort fallback.
      col = sparse ? static_cast<std::uint32_t>(rng.below(UINT32_MAX))
                   : static_cast<std::uint32_t>(rng.below(12));
    }
    Coloring ref = c, opt = c;
    const std::size_t ref_k = reference_normalize(ref);
    EXPECT_EQ(conflict::num_colors(c),
              std::set<std::uint32_t>(c.begin(), c.end()).size());
    EXPECT_EQ(conflict::normalize_colors(opt), ref_k);
    EXPECT_EQ(opt, ref);
  }
}

}  // namespace
