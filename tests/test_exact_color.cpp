// Unit tests for the exact chromatic-number solver — the oracle the benches
// use to certify every "w equals ..." claim.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>

#include "api/strategy.hpp"
#include "conflict/clique.hpp"
#include "conflict/exact_color.hpp"
#include "dag/classify.hpp"
#include "gen/paper_instances.hpp"
#include "gen/family_gen.hpp"
#include "gen/random_dag.hpp"
#include "gen/workloads.hpp"
#include "paths/familyio.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"
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

using namespace wdag::conflict;

ConflictGraph cycle(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return ConflictGraph(n, edges);
}

ConflictGraph complete(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return ConflictGraph(n, edges);
}

TEST(ExactColorTest, EmptyAndEdgeless) {
  EXPECT_EQ(chromatic_number(ConflictGraph(0, {})).chromatic_number, 0u);
  EXPECT_EQ(chromatic_number(ConflictGraph(5, {})).chromatic_number, 1u);
}

TEST(ExactColorTest, OddAndEvenCycles) {
  EXPECT_EQ(chromatic_number(cycle(5)).chromatic_number, 3u);
  EXPECT_EQ(chromatic_number(cycle(6)).chromatic_number, 2u);
  EXPECT_EQ(chromatic_number(cycle(9)).chromatic_number, 3u);
  EXPECT_EQ(chromatic_number(cycle(3)).chromatic_number, 3u);
}

TEST(ExactColorTest, CompleteGraphs) {
  for (std::size_t n : {1u, 2u, 4u, 7u}) {
    EXPECT_EQ(chromatic_number(complete(n)).chromatic_number, n);
  }
}

TEST(ExactColorTest, ReturnsValidOptimalColoring) {
  const auto cg = cycle(7);
  const auto res = chromatic_number(cg);
  EXPECT_TRUE(res.proven);
  EXPECT_TRUE(is_valid_coloring(cg, res.coloring));
  EXPECT_EQ(num_colors(res.coloring), res.chromatic_number);
}

TEST(ExactColorTest, WagnerGraphNeedsThree) {
  // V8 = C8 + antipodal chords — the conflict graph of the Havet instance.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < 8; ++i) edges.emplace_back(i, (i + 1) % 8);
  for (std::size_t i = 0; i < 4; ++i) edges.emplace_back(i, i + 4);
  EXPECT_EQ(chromatic_number(ConflictGraph(8, edges)).chromatic_number, 3u);
}

TEST(ExactColorTest, HavetReplicatedMatchesCeil8hOver3) {
  const auto base = wdag::gen::havet_instance();
  for (std::size_t h = 1; h <= 3; ++h) {
    const auto fam = base.family.replicate(h);
    const auto res = chromatic_number(ConflictGraph(fam));
    ASSERT_TRUE(res.proven);
    EXPECT_EQ(res.chromatic_number, (8 * h + 2) / 3) << "h=" << h;
  }
}

TEST(TryColorWithTest, DecisionBoundary) {
  const auto cg = cycle(5);
  EXPECT_FALSE(try_color_with(cg, 2).has_value());
  const auto col = try_color_with(cg, 3);
  ASSERT_TRUE(col.has_value());
  EXPECT_TRUE(is_valid_coloring(cg, *col));
  EXPECT_LE(num_colors(*col), 3u);
}

TEST(TryColorWithTest, CliqueShortCircuit) {
  EXPECT_FALSE(try_color_with(complete(6), 5).has_value());
}

TEST(TryColorWithTest, EmptyGraph) {
  const auto col = try_color_with(ConflictGraph(0, {}), 0);
  ASSERT_TRUE(col.has_value());
  EXPECT_TRUE(col->empty());
}

TEST(ExactColorTest, AgreesWithCliqueOnPerfectLikeInstances) {
  // Interval-like conflict graphs of dipaths on a chain are perfect:
  // chi == clique.
  wdag::util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = wdag::gen::random_out_tree(rng, 20);
    const auto fam = wdag::gen::random_walk_family(rng, g, 18, 1, 6);
    const ConflictGraph cg(fam);
    const auto res = chromatic_number(cg);
    ASSERT_TRUE(res.proven);
    EXPECT_EQ(res.chromatic_number, clique_number(cg));
  }
}

TEST(ExactColorTest, NeverBelowCliqueNeverAboveDsatur) {
  wdag::util::Xoshiro256 rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    const auto g = wdag::gen::random_layered_dag(rng, 4, 4, 0.5);
    const auto fam = wdag::gen::random_walk_family(rng, g, 20, 1, 5);
    const ConflictGraph cg(fam);
    const auto res = chromatic_number(cg);
    ASSERT_TRUE(res.proven);
    EXPECT_GE(res.chromatic_number, clique_number(cg));
    EXPECT_LE(res.chromatic_number, num_colors(dsatur_coloring(cg)));
  }
}

// ---------------------------------------------------------------------------
// Differential oracle for the twin rule: the search restricts twins
// (equal closed neighborhoods) to increasing colors in index order, which
// is sound only while each twin class is colored in index order. Graphs
// built from twin classes, with a few pairs flipped so that near-twins
// appear too, are checked against an exhaustive chromatic number.
// ---------------------------------------------------------------------------

constexpr std::size_t kBudget = 1'000'000;

/// Chromatic number by dynamic programming over vertex subsets (the
/// fewest independent sets covering the graph); shares nothing with the
/// search. O(3^n), for n <= 12.
std::size_t brute_force_chi(const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  std::vector<std::uint32_t> nbr(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (cg.adjacent(u, v)) nbr[u] |= std::uint32_t{1} << v;
    }
  }
  std::vector<bool> independent(std::size_t{full} + 1, false);
  std::vector<std::size_t> chi(std::size_t{full} + 1, 0);
  independent[0] = true;
  for (std::uint32_t set = 1; set <= full; ++set) {
    const std::size_t low = static_cast<std::size_t>(std::countr_zero(set));
    const std::uint32_t rest = set & (set - 1);
    independent[set] = independent[rest] && (nbr[low] & rest) == 0;
    // Some color class holds the lowest vertex of the set.
    std::size_t best = n;
    for (std::uint32_t part = set; part != 0; part = (part - 1) & set) {
      if ((part & (std::uint32_t{1} << low)) != 0 && independent[part]) {
        best = std::min(best, 1 + chi[set ^ part]);
      }
    }
    chi[set] = best;
  }
  return chi[full];
}

/// At most 12 vertices: up to 7 base vertices with 1-3 true-twin copies
/// each (copies of one base are adjacent, and copies of two bases are
/// adjacent iff the bases are), ids shuffled, then each pair flipped with
/// probability 1/20.
ConflictGraph random_twin_graph(wdag::util::Xoshiro256& rng) {
  const std::size_t bases = 1 + rng.below(7);
  const double density = rng.uniform();
  std::vector<std::vector<bool>> base_adj(bases, std::vector<bool>(bases));
  for (std::size_t a = 0; a < bases; ++a) {
    for (std::size_t b = a + 1; b < bases; ++b) {
      base_adj[a][b] = base_adj[b][a] = rng.chance(density);
    }
  }
  std::vector<std::size_t> base_of;
  for (std::size_t b = 0; b < bases; ++b) {
    const std::size_t copies = 1 + rng.below(3);
    for (std::size_t c = 0; c < copies && base_of.size() < 12; ++c) {
      base_of.push_back(b);
    }
  }
  const std::size_t n = base_of.size();
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), std::size_t{0});
  rng.shuffle(id);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const std::size_t a = base_of[x];
      const std::size_t b = base_of[y];
      bool edge = a == b || base_adj[a][b];
      if (rng.below(20) == 0) edge = !edge;
      if (edge) edges.emplace_back(id[x], id[y]);
    }
  }
  return ConflictGraph(n, edges);
}

void expect_optimal(const ConflictGraph& cg, const ChromaticResult& r,
                    std::size_t chi, const char* what) {
  EXPECT_TRUE(r.proven) << what;
  EXPECT_EQ(r.chromatic_number, chi) << what;
  EXPECT_TRUE(is_valid_coloring(cg, r.coloring)) << what;
  EXPECT_EQ(num_colors(r.coloring), r.chromatic_number) << what;
}

TEST(ExactColorDifferential, TwinGraphsMatchExhaustiveChromaticNumber) {
  wdag::util::Xoshiro256 rng(2024);
  std::size_t with_twins = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const ConflictGraph cg = random_twin_graph(rng);
    const std::size_t n = cg.size();
    const std::size_t chi = brute_force_chi(cg);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n = " +
                 std::to_string(n) + ", chi = " + std::to_string(chi));

    expect_optimal(cg, chromatic_number(cg, kBudget), chi, "two-argument");
    Coloring rainbow(n);
    std::iota(rainbow.begin(), rainbow.end(), std::uint32_t{0});
    expect_optimal(cg, chromatic_number(cg, {0, false, rainbow}, kBudget), chi,
                   "bounded, no lower bound, rainbow upper bound");
    expect_optimal(cg,
                   chromatic_number(cg, {clique_number(cg), true,
                                         greedy_coloring(cg)},
                                    kBudget),
                   chi, "bounded, clique number, greedy upper bound");
    for (std::size_t k = 0; k <= n; ++k) {
      const auto col = try_color_with(cg, k, kBudget);
      ASSERT_EQ(col.has_value(), k >= chi) << "try_color_with k = " << k;
      if (col.has_value()) {
        EXPECT_TRUE(is_valid_coloring(cg, *col)) << "k = " << k;
        EXPECT_LE(num_colors(*col), k) << "k = " << k;
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        if (!cg.adjacent(u, v)) continue;
        auto ru = cg.neighbors(u).to_indices();
        auto rv = cg.neighbors(v).to_indices();
        std::erase(ru, v);
        std::erase(rv, u);
        if (ru == rv) ++with_twins;
      }
    }
  }
  EXPECT_GT(with_twins, 1000u);  // the generator does produce twins
}

TEST(ExactColorTest, BoundedFormRejectsBoundsThatCannotHold) {
  const auto cg = cycle(5);
  // A monochromatic edge is no upper bound.
  EXPECT_THROW((void)chromatic_number(cg, {0, false, Coloring(5, 0)}, kBudget),
               wdag::InvalidArgument);
  // A lower bound of 4 above a valid 3-coloring.
  EXPECT_THROW((void)chromatic_number(cg, {4, false, Coloring{0, 1, 0, 1, 2}},
                                      kBudget),
               wdag::InvalidArgument);
  // Bounds that meet need no search.
  const auto met = chromatic_number(cg, {3, false, Coloring{0, 1, 0, 1, 2}},
                                    kBudget);
  EXPECT_EQ(met.chromatic_number, 3u);
  EXPECT_EQ(met.nodes, 0u);
  EXPECT_EQ(met.coloring, (Coloring{0, 1, 0, 1, 2}));
}

TEST(ExactColorDifferential, BoundedFormAgreesOnEveryWorkloadFamily) {
  // The bounds the solve pipeline hands the search: pi, the UPP flag and
  // the dispatched strategy's own coloring (certification disabled).
  wdag::core::SolveOptions options;
  options.exact_threshold = 0;
  for (const std::string& name : wdag::gen::workload_names()) {
    wdag::util::Xoshiro256 rng(99);
    std::size_t checked = 0;
    for (int i = 0; i < 30; ++i) {
      const auto inst =
          wdag::gen::workload_instance(name, wdag::gen::WorkloadParams{}, rng);
      if (inst.family.size() > 48) continue;
      SCOPED_TRACE(name + " #" + std::to_string(i));
      const auto resp = wdag::api::solve_with(wdag::api::builtin_registry(),
                                              inst.family, options);
      const ConflictGraph cg(inst.family);
      const auto two = chromatic_number(cg, kBudget);
      const auto bounded = chromatic_number(
          cg, {resp.load, resp.report.is_upp, resp.coloring}, kBudget);
      ASSERT_TRUE(two.proven);
      ASSERT_TRUE(bounded.proven);
      EXPECT_EQ(bounded.chromatic_number, two.chromatic_number);
      EXPECT_TRUE(is_valid_coloring(cg, bounded.coloring));
      EXPECT_EQ(num_colors(bounded.coloring), bounded.chromatic_number);
      EXPECT_LE(bounded.chromatic_number, resp.wavelengths);
      EXPECT_GE(two.chromatic_number, resp.load);
      if (resp.report.wavelengths_equal_load()) {  // Theorem 1
        EXPECT_EQ(two.chromatic_number, resp.load);
      }
      ++checked;
    }
    EXPECT_GT(checked, 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// The certification tail: two random-upp instances (tests/data) on which
// split-merge ships 11 wavelengths at load 10 while the optimum is 10.
// Exact certification must decide both within a fixed node budget, in the
// solve pipeline and in the two-argument chromatic_number alike.
// ---------------------------------------------------------------------------

constexpr std::size_t kTailBudget = 250'000;

wdag::paths::ParsedInstance load_tail_instance(const std::string& name) {
  const std::string path = std::string(WDAG_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return wdag::paths::parse_instance_text(text.str());
}

class CertifyTailTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CertifyTailTest, SolveWithProvesTheLoad) {
  const auto inst = load_tail_instance(GetParam());
  wdag::core::SolveOptions options;
  options.exact_node_budget = kTailBudget;
  const auto r = wdag::api::solve_with(wdag::api::builtin_registry(),
                                       inst.family, options);
  EXPECT_EQ(r.load, 10u);
  EXPECT_EQ(r.wavelengths, 10u);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.strategy_name, "exact");
}

TEST_P(CertifyTailTest, TwoArgumentChromaticNumberProvesTen) {
  const auto inst = load_tail_instance(GetParam());
  const ConflictGraph cg(inst.family);
  const auto r = chromatic_number(cg, kTailBudget);
  EXPECT_TRUE(r.proven);
  EXPECT_EQ(r.chromatic_number, 10u);
}

INSTANTIATE_TEST_SUITE_P(RandomUpp, CertifyTailTest,
                         ::testing::Values("random_upp_seed307_4046.txt",
                                           "random_upp_seed12_64532.txt"));

// ---------------------------------------------------------------------------
// Golden search trees. A certification's node count, proven flag and
// colouring depend on every tie the search breaks, yet neither a wavelength
// count nor a validity check would notice a changed tie-break. These
// digests pin all of them on the inputs the solve pipeline certifies, on
// graphs whose rows end at and straddle word boundaries, on replicated
// families wide enough for the twin rule to run past one word, and on one
// search that exhausts its budget. They were recorded with the
// counter-table search the bit-plane kernel replaced; a change that alters
// a tree on purpose re-records them and says why.
// ---------------------------------------------------------------------------

using wdag::gen::Instance;
using wdag::gen::WorkloadParams;
using wdag::util::Xoshiro256;

/// FNV-1a over 64-bit words, folded across a whole pool.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const Coloring& c) {
    add(c.size());
    for (const auto col : c) add(col);
  }
  void add(const ChromaticResult& r) {
    add(r.chromatic_number);
    add(r.nodes);
    add(r.proven ? 1 : 0);
    add(r.coloring);
  }
  /// One decision: the k tried, and the colouring when there is one.
  void add(std::size_t k, const std::optional<Coloring>& c) {
    add(k);
    add(c.has_value() ? 1 : 0);
    if (c.has_value()) add(*c);
  }
};

/// Per-item seeds of a pool: a splitmix64 finalizer over (seed, index),
/// so draw i of a pool is the same whatever else the pool holds.
std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The same instance with its dipaths in a random order.
Instance shuffled(const Instance& base, Xoshiro256& rng) {
  std::vector<std::size_t> order(base.family.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  Instance out;
  out.graph = base.graph;
  out.family = wdag::paths::DipathFamily(*out.graph);
  for (const std::size_t i : order) {
    out.family.add_unchecked(base.family.paths()[i]);
  }
  return out;
}

/// One draw of the certify-exact benchmark's mix: distinct random-DAG
/// families (12 in 20), odd-cycle gadgets C_{2k+1} (5 in 20) and Havet
/// h = 2 (3 in 20), the gadgets with their dipaths shuffled.
Instance certify_exact_draw(Xoshiro256& rng) {
  const std::uint64_t pick = rng.below(20);
  WorkloadParams p;
  if (pick < 12) {
    p.size = 24;
    p.density = 0.2;
    p.paths = 16 + static_cast<std::size_t>(rng.below(33));
    return wdag::gen::workload_instance("random-dag", p, rng);
  }
  if (pick < 17) {
    p.k = 2 + static_cast<std::size_t>(rng.below(22));
    return shuffled(wdag::gen::workload_instance("odd-cycle", p, rng), rng);
  }
  p.h = 2;
  return shuffled(wdag::gen::workload_instance("havet", p, rng), rng);
}

/// The bounds forced exact hands the search: pi, the UPP flag of the
/// host, and a DSATUR colouring.
ChromaticBounds forced_exact_bounds(const Instance& inst,
                                    const ConflictGraph& cg) {
  return {wdag::paths::max_load(inst.family),
          wdag::dag::classify(*inst.graph).is_upp, dsatur_coloring(cg)};
}

/// Both chromatic_number forms, then the decisions at chi and, where no
/// clique refutes it, at chi - 1. (Where chi is the clique number, the
/// decision at chi - 1 proves nothing of the search and, when the greedy
/// clique misses the maximum one, can cost seconds.)
void add_certification(Fnv1a& h, const Instance& inst, std::size_t budget) {
  const ConflictGraph cg(inst.family);
  const auto bounded =
      chromatic_number(cg, forced_exact_bounds(inst, cg), budget);
  h.add(bounded);
  const auto two = chromatic_number(cg, budget);
  h.add(two);
  if (!bounded.proven || !two.proven) return;
  const std::size_t chi = bounded.chromatic_number;
  h.add(chi, try_color_with(cg, chi, budget));
  if (chi > clique_number(cg)) {
    h.add(chi - 1, try_color_with(cg, chi - 1, budget));
  }
}

/// An odd cycle through `len` of n vertices, ids scattered over the rows
/// by a stride coprime to n, the rest isolated: chi = 3 > omega = 2.
ConflictGraph scattered_odd_cycle(std::size_t n, std::size_t len) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < len; ++i) {
    edges.emplace_back(i * 37 % n, (i + 1) % len * 37 % n);
  }
  return ConflictGraph(n, edges);
}

Instance odd_cycle(std::size_t k) {
  WorkloadParams p;
  p.k = k;
  Xoshiro256 rng(0);
  return wdag::gen::workload_instance("odd-cycle", p, rng);
}

Instance havet(std::size_t h) {
  WorkloadParams p;
  p.h = h;
  Xoshiro256 rng(0);
  return wdag::gen::workload_instance("havet", p, rng);
}

void expect_digest(const Fnv1a& h, std::uint64_t digest, const char* what) {
  EXPECT_EQ(h.h, digest) << what << ": 0x" << std::hex << h.h;
}

TEST(ExactGoldenTest, CertifyExactMix) {
  constexpr std::size_t kDraws = 1024;
  const std::size_t budget = wdag::core::SolveOptions{}.exact_node_budget;
  const std::uint64_t digests[] = {0xb37954cba9541840ULL,
                                   0x18123ad50df1df90ULL};
  for (const std::uint64_t seed : {1, 2}) {
    Fnv1a h;
    for (std::size_t i = 0; i < kDraws; ++i) {
      Xoshiro256 rng(item_seed(seed, i));
      add_certification(h, certify_exact_draw(rng), budget);
    }
    expect_digest(h, digests[seed - 1], seed == 1 ? "seed 1" : "seed 2");
  }
}

// try_color_with decides "no" by the exact clique number before it
// searches: a one-node budget would throw if it searched at all.
TEST(TryColorWithTest, ExactCliqueRefutesBeforeSearch) {
  // K4 on 4..7, plus two triangles {0, 4, 5} and {1, 6, 7}. Grown in id
  // order, every seed's greedy clique takes 0 or 1 first and stops at
  // three vertices.
  const ConflictGraph hand(8, {{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7},
                               {6, 7}, {0, 4}, {0, 5}, {1, 6}, {1, 7}});
  ASSERT_EQ(greedy_clique(hand).size(), 3u);
  ASSERT_EQ(max_clique(hand).size(), 4u);
  EXPECT_FALSE(try_color_with(hand, 3, /*node_budget=*/1).has_value());

  // Certify-exact's seed-2 draw 485: 43 dipaths, omega = chi = 8, and a
  // greedy clique of 7. Refuting k = 7 by search took half a second.
  Xoshiro256 rng(item_seed(2, 485));
  const ConflictGraph drawn(certify_exact_draw(rng).family);
  ASSERT_EQ(drawn.size(), 43u);
  ASSERT_EQ(greedy_clique(drawn).size(), 7u);
  ASSERT_EQ(max_clique(drawn).size(), 8u);
  EXPECT_FALSE(try_color_with(drawn, 7, /*node_budget=*/1).has_value());
}

TEST(ExactGoldenTest, UppMixCertifications) {
  // The certifications the solve pipeline runs on upp-mix: the
  // dispatched colouring above pi, on at most 48 dipaths, searched
  // between pi and that colouring.
  constexpr std::size_t kDraws = 4096;
  wdag::core::SolveOptions options;
  options.exact_threshold = 0;
  Fnv1a h;
  std::size_t certified = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    Xoshiro256 rng(item_seed(1, i));
    const Instance inst =
        wdag::gen::workload_instance("random-upp", WorkloadParams{}, rng);
    const auto resp = wdag::api::solve_with(wdag::api::builtin_registry(),
                                            inst.family, options);
    if (resp.optimal || inst.family.size() > 48) continue;
    const ConflictGraph cg(inst.family);
    h.add(chromatic_number(cg, {resp.load, resp.report.is_upp, resp.coloring},
                           options.exact_node_budget));
    ++certified;
  }
  EXPECT_GT(certified, kDraws / 8);
  expect_digest(h, 0x26ad5d0e993da5abULL, "upp-mix");
}

TEST(ExactGoldenTest, WidthBoundaries) {
  constexpr std::size_t kBudget = 1'000'000;
  Fnv1a h;
  for (const std::size_t n : {63u, 64u, 65u, 128u, 129u}) {
    const ConflictGraph cg = scattered_odd_cycle(n, (n - 2) | 1);
    const auto r = chromatic_number(cg, kBudget);
    EXPECT_EQ(r.chromatic_number, 3u) << n;
    h.add(r);
    h.add(3, try_color_with(cg, 3, kBudget));
    h.add(2, try_color_with(cg, 2, kBudget));
  }
  add_certification(h, odd_cycle(32), kBudget);  // 65 dipaths
  // Havet h = 8 fills one word (64 dipaths, pi = 16, chi = 22); its
  // search runs out of a 20,000-node budget.
  const Instance wide = havet(8);
  const ConflictGraph cg(wide.family);
  ASSERT_EQ(cg.size(), 64u);
  const auto bounded =
      chromatic_number(cg, forced_exact_bounds(wide, cg), 20'000);
  EXPECT_FALSE(bounded.proven);
  h.add(bounded);
  h.add(chromatic_number(cg, 20'000));
  expect_digest(h, 0xf529af3da5821b09ULL, "width boundaries");
}

TEST(ExactGoldenTest, ReplicatedPastOneWord) {
  // Twin classes of 2 and 3 identical dipaths past 64 dipaths: C_33 and
  // C_49 doubled (66 and 98 dipaths, chi = 5 > pi = 4), C_33 tripled (99,
  // chi = 7 > pi = 6). Havet replicated 9 times (72) runs out of a small
  // budget, with the twin rule cutting every class of 9.
  constexpr std::size_t kBudget = 1'000'000;
  Fnv1a h;
  add_certification(h, odd_cycle(16).replicate(2), kBudget);
  add_certification(h, odd_cycle(24).replicate(2), kBudget);
  add_certification(h, odd_cycle(16).replicate(3), kBudget);
  add_certification(h, havet(1).replicate(9), 20'000);
  expect_digest(h, 0xaee38d752afa80bcULL, "replicated");
}

TEST(ExactGoldenTest, BudgetExhausted) {
  // Havet h = 9: 72 dipaths, pi = 18, chi = 24. Some k runs out of its
  // budget, so the DSATUR colouring comes back unproven.
  const Instance inst = havet(9);
  const ConflictGraph cg(inst.family);
  const auto r = chromatic_number(cg, forced_exact_bounds(inst, cg), 100'000);
  EXPECT_FALSE(r.proven);
  EXPECT_GT(r.nodes, 100'000u);
  EXPECT_TRUE(is_valid_coloring(cg, r.coloring));
  Fnv1a h;
  h.add(r);
  expect_digest(h, 0x91e0e4bf5aedb5d2ULL, "havet h = 9");
}

// --- Heap allocations per call -------------------------------------------
//
// The search keeps every table in per-thread scratch, so once warm a
// bounded call allocates at most the colouring it returns: one block when
// some k below the upper bound succeeds, none when none does.

TEST(ExactAllocationTest, AtMostTheResultOnceWarm) {
  std::vector<Instance> pool;
  for (std::size_t i = 0; i < 64; ++i) {
    Xoshiro256 rng(item_seed(3, i));
    pool.push_back(certify_exact_draw(rng));
  }
  pool.push_back(odd_cycle(40));
  pool.push_back(havet(3));
  std::vector<ConflictGraph> graphs;
  std::vector<ChromaticBounds> bounds;
  for (const Instance& inst : pool) {
    graphs.emplace_back(inst.family);
    // A clique-number lower bound, so max_clique does not run.
    bounds.push_back({clique_number(graphs.back()), true,
                      dsatur_coloring(graphs.back())});
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    (void)chromatic_number(graphs[i], bounds[i], kBudget);
  }
  std::size_t searched = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ChromaticBounds b = bounds[i];  // copied before counting
    const std::size_t ub = num_colors(b.upper);
    const std::size_t before = heap_allocations.load();
    const auto r = chromatic_number(graphs[i], std::move(b), kBudget);
    const std::size_t allocations = heap_allocations.load() - before;
    ASSERT_TRUE(r.proven);
    if (r.nodes > 0) ++searched;
    EXPECT_EQ(allocations, r.chromatic_number < ub ? 1u : 0u)
        << "instance " << i << ", " << r.nodes << " nodes";
  }
  EXPECT_GT(searched, pool.size() / 4);
}

}  // namespace
