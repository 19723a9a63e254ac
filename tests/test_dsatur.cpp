// Golden digests and an allocation guard for the DSATUR colourer.
//
// DSATUR's picks decide every dispatched colouring of a general DAG and
// forced exact's upper bound, yet a changed tie-break need not change a
// wavelength count, so neither the CSV bytes nor a validity check would
// notice it. These digests pin the colouring itself, over dense
// (dense-dsatur-shaped) conflict graphs and every workload family, so a
// rewrite of the kernel must reproduce the recorded picks exactly. A
// change that alters the colourings on purpose re-records them and says
// why.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "gen/workloads.hpp"
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

using wdag::conflict::ConflictGraph;
using wdag::conflict::dsatur_coloring;
using wdag::gen::WorkloadParams;

/// The dense-dsatur benchmark's instance shape: 1,500 random walks on a
/// 60-vertex random DAG, about 29k conflict edges.
WorkloadParams dense_params() {
  WorkloadParams p;
  p.size = 60;
  p.density = 0.15;
  p.paths = 1500;
  return p;
}

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

/// The conflict graph of draw i of a pool, each draw on its own stream.
ConflictGraph pool_graph(const std::string& family,
                         const WorkloadParams& params, std::uint64_t seed,
                         std::size_t i) {
  wdag::util::Xoshiro256 rng((seed << 32) | i);
  return ConflictGraph(
      wdag::gen::workload_instance(family, params, rng).family);
}

struct GoldenPool {
  const char* family;
  WorkloadParams params;
  std::uint64_t seed;
  std::size_t draws;
  std::uint64_t digest;
};

TEST(DsaturGoldenTest, ChoicesMatchRecordedDigests) {
  // Two dense pools, then every workload family at its default
  // parameters, except odd-cycle at k = 4 (C9): its default k = 3 is c7's
  // instance. The fixed families (odd-cycle .. havet) draw the same
  // instance each time, which also checks that no state leaks from one
  // call into the next.
  WorkloadParams c9;
  c9.k = 4;
  const GoldenPool pools[] = {
      {"random-dag", dense_params(), 1, 16, 0x6a4956c3a08ff5ebULL},
      {"random-dag", dense_params(), 2, 16, 0xb8419f2ee7e92fc7ULL},
      {"random-upp", {}, 1, 200, 0xef4ecf5e6b05225cULL},
      {"random-dag", {}, 1, 200, 0x3b28f9ba59785624ULL},
      {"no-internal", {}, 1, 200, 0x84f631c16bef00e1ULL},
      {"layered", {}, 1, 200, 0x8d887ec3a594ea7cULL},
      {"tree", {}, 1, 200, 0xda170a1e6cc88593ULL},
      {"grid", {}, 1, 200, 0xca4a39524e3b78cdULL},
      {"butterfly", {}, 1, 200, 0x613363b0cbd7a6e6ULL},
      {"fat-chain", {}, 1, 200, 0xb9d6813278eba467ULL},
      {"spine", {}, 1, 200, 0x54734af0f970e2c8ULL},
      {"odd-cycle", c9, 1, 200, 0x3a8fe2a856bc2a25ULL},
      {"c5", {}, 1, 200, 0x9c73bc516cabd025ULL},
      {"c7", {}, 1, 200, 0x1033e55777de1525ULL},
      {"figure1", {}, 1, 200, 0xb61dce3026f21b25ULL},
      {"figure3", {}, 1, 200, 0x9c73bc516cabd025ULL},
      {"havet", {}, 1, 200, 0x4401ad17319a5e25ULL},
  };
  for (const GoldenPool& pool : pools) {
    Fnv1a h;
    for (std::size_t i = 0; i < pool.draws; ++i) {
      const auto c =
          dsatur_coloring(pool_graph(pool.family, pool.params, pool.seed, i));
      h.add(c.size());
      for (const auto col : c) h.add(col);
    }
    EXPECT_EQ(h.h, pool.digest)
        << pool.family << " seed " << pool.seed << ": 0x" << std::hex << h.h;
  }
}

// --- Heap allocations per call -------------------------------------------
//
// Every table the kernel works in persists per thread, so once the tables
// have grown to the largest graph of a pool a call allocates exactly one
// block: the Coloring it returns.

TEST(DsaturAllocationTest, OnlyTheResultOnceWarm) {
  std::vector<ConflictGraph> pool;
  for (std::size_t i = 0; i < 8; ++i) {
    pool.push_back(pool_graph("random-dag", dense_params(), 3, i));
  }
  for (const std::string& family : wdag::gen::workload_names()) {
    for (std::size_t i = 0; i < 8; ++i) {
      pool.push_back(pool_graph(family, {}, 3, i));
    }
  }
  std::size_t nonempty = 0;
  for (const ConflictGraph& cg : pool) {
    if (cg.size() > 0) ++nonempty;
    (void)dsatur_coloring(cg);
  }
  const std::size_t before = heap_allocations.load();
  for (const ConflictGraph& cg : pool) (void)dsatur_coloring(cg);
  const std::size_t allocations = heap_allocations.load() - before;
  // An empty graph's empty Coloring allocates nothing.
  EXPECT_EQ(allocations, nonempty);
  RecordProperty("allocations_per_call",
                 std::to_string(static_cast<double>(allocations) /
                                static_cast<double>(pool.size())));
}

}  // namespace
