#include "conflict/conflict_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace wdag::conflict {

ConflictGraph::ConflictGraph(const paths::DipathFamily& family) {
  rebuild(family);
}

void ConflictGraph::rebuild(const paths::DipathFamily& family) {
  thread_local std::vector<std::uint32_t> offsets;
  thread_local std::vector<paths::PathId> ids;
  paths::arc_incidence_csr(family, offsets, ids);
  rebuild_from_groups(family.size(), offsets, ids);
}

void ConflictGraph::rebuild_from_groups(
    std::size_t n, const std::vector<std::uint32_t>& offsets,
    const std::vector<std::uint32_t>& ids) {
  const std::size_t total = offsets.empty() ? 0 : offsets.back();
  WDAG_REQUIRE(total <= ids.size(),
               "ConflictGraph::rebuild_from_groups: offsets past the ids");
  WDAG_REQUIRE(std::all_of(ids.begin(), ids.begin() + total,
                           [n](std::uint32_t u) { return u < n; }),
               "ConflictGraph::rebuild_from_groups: vertex id out of range");
  reset_rows(n);
  // A local, not words_: row writes are uint64_t stores, which may alias
  // a size_t member and would block vectorizing the splat below.
  const std::size_t words = words_;
  // One n-bit membership mask, kept per thread and all zero between
  // groups: a group sets its members' bits, ORs the mask into their rows
  // and clears the words it set.
  thread_local std::vector<std::uint64_t> mask;
  mask.assign(words, 0);
  for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
    WDAG_REQUIRE(offsets[a] <= offsets[a + 1],
                 "ConflictGraph::rebuild_from_groups: offsets must not fall");
    const std::uint32_t* members = ids.data() + offsets[a];
    const std::size_t g = offsets[a + 1] - offsets[a];
    if (g < 2) continue;
    // Pairwise sets touch g*(g-1) bits; the mask route costs ~g OR-sweeps
    // of `words` words plus building the mask. Pick whichever is fewer
    // word operations — the resulting graph is identical either way.
    if (g * (g - 1) <= (g + 2) * words) {
      for (std::size_t i = 0; i < g; ++i) {
        for (std::size_t j = i + 1; j < g; ++j) {
          add_edge(members[i], members[j]);
        }
      }
      continue;
    }
    std::uint64_t* src = mask.data();
    for (std::size_t i = 0; i < g; ++i) {
      src[members[i] / 64] |= std::uint64_t{1} << (members[i] % 64);
    }
    for (std::size_t i = 0; i < g; ++i) {
      const std::size_t u = members[i];
      std::uint64_t* dst = row(u);
      for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
      // The splat put u on its own row; clear the diagonal.
      dst[u / 64] &= ~(std::uint64_t{1} << (u % 64));
    }
    for (std::size_t i = 0; i < g; ++i) src[members[i] / 64] = 0;
  }
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
    const std::size_t d = util::ConstBitsetView(row(i), n_).count();
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
