#include "conflict/conflict_graph.hpp"

#include <bit>

#include "util/check.hpp"

namespace wdag::conflict {

namespace {

/// Thread-local group mask reused across builds: one n-bit membership mask
/// per arc group is cheaper to OR into rows than quadratic pairwise sets,
/// but only worth materializing once per build, not once per group.
util::DynamicBitset& group_mask_scratch() {
  thread_local util::DynamicBitset mask;
  return mask;
}

}  // namespace

ConflictGraph::ConflictGraph(const paths::DipathFamily& family) {
  rebuild(family);
}

void ConflictGraph::rebuild(const paths::DipathFamily& family) {
  const std::size_t n = family.size();
  reset_rows(n);
  // A local, not words_: row writes are uint64_t stores, which may alias
  // a size_t member and would block vectorizing the splat below.
  const std::size_t words = words_;
  util::DynamicBitset& mask = group_mask_scratch();
  bool mask_live = false;
  paths::for_each_arc_group(family, [&](const paths::PathId* ids,
                                        std::size_t g) {
    if (g < 2) return;
    // Pairwise sets touch g*(g-1) bits; the mask route costs ~g OR-sweeps
    // of `words` words plus building the mask. Pick whichever is fewer
    // word operations — the resulting graph is identical either way.
    if (g * (g - 1) <= (g + 2) * words) {
      for (std::size_t i = 0; i < g; ++i) {
        for (std::size_t j = i + 1; j < g; ++j) add_edge(ids[i], ids[j]);
      }
      return;
    }
    if (!mask_live) {
      mask.reset_to_zero(n);
      mask_live = true;
    } else {
      mask.clear_all();
    }
    for (std::size_t i = 0; i < g; ++i) mask.set_unchecked(ids[i]);
    const std::uint64_t* src = util::ConstBitsetView(mask).data();
    for (std::size_t i = 0; i < g; ++i) {
      const std::size_t u = ids[i];
      std::uint64_t* dst = row(u);
      for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
      // The splat put u on its own row; clear the diagonal.
      dst[u / 64] &= ~(std::uint64_t{1} << (u % 64));
    }
  });
  finalize();
}

ConflictGraph::ConflictGraph(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  reset_rows(n);
  for (const auto& [u, v] : edges) {
    WDAG_REQUIRE(u < n && v < n && u != v,
                 "ConflictGraph: bad edge in explicit edge list");
    add_edge(u, v);
  }
  finalize();
}

void ConflictGraph::reset_rows(std::size_t n) {
  n_ = n;
  words_ = (n + 63) / 64;
  pool_.assign(n * words_, 0);  // keeps the capacity of earlier builds
}

void ConflictGraph::finalize() {
  degrees_.resize(n_);
  max_degree_ = 0;
  std::size_t twice = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t* r = row(i);
    std::size_t d = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      d += static_cast<std::size_t>(std::popcount(r[w]));
    }
    degrees_[i] = static_cast<std::uint32_t>(d);
    max_degree_ = std::max(max_degree_, d);
    twice += d;
  }
  num_edges_ = twice / 2;
}

void ConflictGraph::add_edge(std::size_t u, std::size_t v) {
  row(u)[v / 64] |= std::uint64_t{1} << (v % 64);
  row(v)[u / 64] |= std::uint64_t{1} << (u % 64);
}

bool ConflictGraph::adjacent(std::size_t u, std::size_t v) const {
  WDAG_REQUIRE(u < size() && v < size(), "ConflictGraph::adjacent: out of range");
  return u != v && ((row(u)[v / 64] >> (v % 64)) & 1) != 0;
}

}  // namespace wdag::conflict
