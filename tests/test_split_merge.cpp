// Tests for the Theorem 6 split-merge colorer on UPP-DAGs with internal
// cycles.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "conflict/exact_color.hpp"
#include "core/split_merge.hpp"
#include "dag/internal_cycle.hpp"
#include "gen/family_gen.hpp"
#include "gen/paper_instances.hpp"
#include "gen/upp_gen.hpp"
#include "gen/workloads.hpp"
#include "helpers.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// Every global operator new in this binary counts itself, so the
// allocation test below can hold the recursion to a count, not a clock.
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

using wdag::core::color_upp_split_merge;
using wdag::gen::UppCycleParams;
using wdag::paths::Dipath;
using wdag::paths::DipathFamily;

std::size_t ceil_four_thirds(std::size_t pi) { return (4 * pi + 2) / 3; }

TEST(SplitMergeTest, EmptyFamily) {
  const auto inst = wdag::gen::theorem2_instance(2);
  DipathFamily empty(*inst.graph);
  const auto res = color_upp_split_merge(empty);
  EXPECT_EQ(res.wavelengths, 0u);
  EXPECT_EQ(res.load, 0u);
}

TEST(SplitMergeTest, FallsBackToTheorem1WithoutCycles) {
  const auto g = wdag::test::chain(6);
  DipathFamily fam(g);
  fam.add(Dipath({0, 1, 2}));
  fam.add(Dipath({1, 2, 3}));
  fam.add(Dipath({2, 3, 4}));
  const auto res = color_upp_split_merge(fam);
  EXPECT_EQ(res.wavelengths, res.load);
  EXPECT_EQ(res.levels, 0u);
}

TEST(SplitMergeTest, Theorem2InstancesWithinBound) {
  for (std::size_t k = 2; k <= 6; ++k) {
    const auto inst = wdag::gen::theorem2_instance(k);
    const auto res = color_upp_split_merge(inst.family);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(inst.family, res.coloring));
    EXPECT_EQ(res.load, 2u);
    EXPECT_GE(res.wavelengths, 3u);  // w == 3 > pi is forced (Theorem 2)
    EXPECT_LE(res.wavelengths, ceil_four_thirds(res.load)) << "k=" << k;
    EXPECT_EQ(res.levels, 1u);
  }
}

TEST(SplitMergeTest, HavetInstanceWithinBound) {
  const auto inst = wdag::gen::havet_instance();
  const auto res = color_upp_split_merge(inst.family);
  EXPECT_TRUE(wdag::conflict::is_valid_assignment(inst.family, res.coloring));
  EXPECT_EQ(res.load, 2u);
  EXPECT_GE(res.wavelengths, 3u);  // chi(V8) == 3
  EXPECT_LE(res.wavelengths, ceil_four_thirds(2));
}

TEST(SplitMergeTest, ReplicatedHavetStaysValid) {
  const auto base = wdag::gen::havet_instance();
  for (std::size_t h : {2u, 3u, 4u}) {
    const auto fam = base.family.replicate(h);
    const auto res = color_upp_split_merge(fam);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
    EXPECT_EQ(res.load, 2 * h);
    // Lower bound from the independence number of V8 (== 3).
    EXPECT_GE(res.wavelengths, (8 * h + 2) / 3) << "h=" << h;
  }
}

TEST(SplitMergeTest, RejectsNonUpp) {
  const auto inst = wdag::gen::figure3_instance();  // has a double route
  EXPECT_THROW(color_upp_split_merge(inst.family), wdag::DomainError);
}

TEST(SplitMergeTest, RejectsNonDag) {
  const auto g = wdag::test::directed_triangle();
  DipathFamily fam(g);
  fam.add(Dipath({0}));
  EXPECT_THROW(color_upp_split_merge(fam), wdag::DomainError);
}

TEST(SplitMergeTest, MultiCycleChainStaysValid) {
  for (std::size_t cycles : {2u, 3u}) {
    const auto skel =
        wdag::gen::upp_multi_cycle_skeleton(cycles, UppCycleParams{2, 1, 1, 1});
    const auto fam = wdag::gen::all_to_all_family(*skel.graph);
    const auto res = color_upp_split_merge(fam);
    EXPECT_TRUE(wdag::conflict::is_valid_assignment(fam, res.coloring));
    EXPECT_EQ(res.levels, cycles);
    EXPECT_GE(res.wavelengths, res.load);
  }
}

// --- Property sweep over random UPP one-cycle instances -------------------

struct SweepParam {
  std::uint64_t seed;
  UppCycleParams gadget;
  std::size_t paths;
};

class SplitMergeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SplitMergeSweep, ValidAndWithinPaperBound) {
  const auto param = GetParam();
  wdag::util::Xoshiro256 rng(param.seed);
  const auto inst =
      wdag::gen::random_upp_one_cycle_instance(rng, param.gadget, param.paths);
  const auto res = color_upp_split_merge(inst.family);

  EXPECT_TRUE(wdag::conflict::is_valid_assignment(inst.family, res.coloring));
  EXPECT_GE(res.wavelengths, res.load);
  // Theorem 6's bound for one internal cycle. These instances have
  // distinct-route dipaths drawn with repetition; the defensive fix-up can
  // only reduce colors relative to the paper's accounting, so the bound
  // must hold.
  EXPECT_LE(res.wavelengths, ceil_four_thirds(res.load))
      << "load=" << res.load << " w=" << res.wavelengths;
  // Exact cross-check on small instances: the true chromatic number obeys
  // the same bound and is sandwiched by load and our result.
  if (inst.family.size() <= 32) {
    const wdag::conflict::ConflictGraph cg(inst.family);
    const auto exact = wdag::conflict::chromatic_number(cg);
    ASSERT_TRUE(exact.proven);
    EXPECT_LE(exact.chromatic_number, res.wavelengths);
    EXPECT_GE(exact.chromatic_number, res.load == 0 ? 0 : 1);
    EXPECT_LE(exact.chromatic_number, ceil_four_thirds(res.load));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomUppOneCycle, SplitMergeSweep,
    ::testing::Values(SweepParam{101, {2, 1, 1, 1}, 10},
                      SweepParam{102, {2, 1, 1, 1}, 20},
                      SweepParam{103, {2, 2, 1, 1}, 15},
                      SweepParam{104, {3, 1, 1, 1}, 15},
                      SweepParam{105, {3, 2, 2, 2}, 25},
                      SweepParam{106, {4, 1, 1, 1}, 20},
                      SweepParam{107, {4, 2, 1, 2}, 30},
                      SweepParam{108, {5, 1, 2, 1}, 25},
                      SweepParam{109, {2, 3, 2, 2}, 30},
                      SweepParam{110, {6, 1, 1, 1}, 40}));

// --- Golden digests of the paper colourer's choices ----------------------
//
// Validity and bound checks cannot see a changed choice that keeps the
// count: on random-upp, flipping the split-arc tie-break changes about
// one result in seven but fewer than one wavelength count in 500. These
// digests pin every output field of every call, over fixed instance
// pools, so a rewrite of the recursion must reproduce the recorded
// colourer exactly. A change that alters the colourings on purpose
// re-records them and says why.

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

struct GoldenPool {
  const char* family;
  wdag::gen::WorkloadParams params;
  std::uint64_t seed;
  std::size_t draws;
  std::uint64_t digest;
};

TEST(SplitMergeGoldenTest, ChoicesMatchRecordedDigests) {
  // The paper gadgets are fixed instances, so their repeated draws also
  // check that no state leaks from one call into the next. odd-cycle runs
  // at k = 4 (C9): its default k = 3 is c7's instance.
  wdag::gen::WorkloadParams c9;
  c9.k = 4;
  const GoldenPool pools[] = {
      {"random-upp", {}, 1, 4096, 0x591a66f94317b0a2ULL},
      {"random-upp", {}, 2, 4096, 0x0e6ed41271f41d7dULL},
      {"odd-cycle", c9, 1, 500, 0xc1f9b436a4a63165ULL},
      {"c5", {}, 1, 500, 0xe55e059822603565ULL},
      {"c7", {}, 1, 500, 0x9d1b1dbbb230de25ULL},
      {"havet", {}, 1, 500, 0x0572a5eb80f476a5ULL},
      {"butterfly", {}, 1, 500, 0x5cd0d3abb1416fa7ULL},
  };
  for (const GoldenPool& pool : pools) {
    Fnv1a h;
    for (std::size_t i = 0; i < pool.draws; ++i) {
      wdag::util::Xoshiro256 rng((pool.seed << 32) | i);
      const auto inst =
          wdag::gen::workload_instance(pool.family, pool.params, rng);
      const auto res = color_upp_split_merge(inst.family, true);
      h.add(res.coloring.size());
      for (const auto c : res.coloring) h.add(c);
      h.add(res.wavelengths);
      h.add(res.load);
      h.add(res.levels);
      h.add(res.cycle_classes);
      h.add(res.fixups);
    }
    EXPECT_EQ(h.h, pool.digest)
        << pool.family << " seed " << pool.seed << ": 0x" << std::hex << h.h;
  }
}

// --- Heap allocations per call -------------------------------------------
//
// Each recursion level works in buffers that persist per thread, so once
// they are warm a call allocates little beyond its result and the load
// count. The bound leaves room for those and fails any per-level rebuild
// of a graph or family, which costs dozens of allocations.

TEST(SplitMergeAllocationTest, FewHeapAllocationsPerCallOnceWarm) {
  std::vector<wdag::gen::Instance> pool;
  for (std::uint64_t i = 0; pool.size() < 512; ++i) {
    wdag::util::Xoshiro256 rng((std::uint64_t{3} << 32) | i);
    auto inst = wdag::gen::workload_instance("random-upp", {}, rng);
    if (wdag::dag::has_internal_cycle(*inst.graph)) {
      pool.push_back(std::move(inst));
    }
  }
  for (const auto& inst : pool) {
    EXPECT_GT(color_upp_split_merge(inst.family, true).levels, 0u);
  }
  const std::size_t before = heap_allocations.load();
  for (const auto& inst : pool) {
    (void)color_upp_split_merge(inst.family, true);
  }
  const double per_call =
      static_cast<double>(heap_allocations.load() - before) /
      static_cast<double>(pool.size());
  EXPECT_LT(per_call, 8.0);
  RecordProperty("allocations_per_call", std::to_string(per_call));
}

}  // namespace
