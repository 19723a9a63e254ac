#pragma once
// The conflict graph of a dipath family (paper §2): one vertex per dipath,
// an edge when two dipaths share an arc. w(G,P) is its chromatic number;
// pi(G,P) is at most its clique number, with equality on UPP-DAGs
// (Property 3).
//
// Construction exploits the group structure of the instance: the dipaths
// through one arc form a clique, so each arc-incidence group is splatted
// into its members' adjacency rows with word-parallel ORs instead of
// per-pair bit sets (large groups), falling back to pairwise sets when the
// group is smaller than a handful of words. Degrees are cached at build
// time, so degree() and max_degree() are O(1).
//
// Adjacency rows live in one contiguous word pool: row u is the
// ceil(n/64) words starting at u * ceil(n/64), and the tail bits past n in
// each row's last word are zero. neighbors() hands out non-owning
// ConstBitsetViews into the pool; they are invalidated by rebuild(), like
// iterators on a reused container.

#include <cstdint>
#include <vector>

#include "paths/family.hpp"
#include "util/check.hpp"
#include "util/dynamic_bitset.hpp"

namespace wdag::conflict {

/// Undirected graph over path ids with bitset adjacency rows.
class ConflictGraph {
 public:
  ConflictGraph() = default;

  /// Builds the conflict graph of `family` via its arc incidence index:
  /// all dipaths through a common arc are pairwise adjacent.
  explicit ConflictGraph(const paths::DipathFamily& family);

  /// Builds from an explicit edge list over n vertices (used by tests).
  ConflictGraph(std::size_t n,
                const std::vector<std::pair<std::size_t, std::size_t>>& edges);

  /// Rebuilds in place for a new family, reusing the row pool. The batch
  /// engine's per-worker scratch arena calls this so consecutive
  /// instances in a chunk do not reallocate the adjacency pool each.
  void rebuild(const paths::DipathFamily& family);

  /// Number of vertices (dipaths).
  [[nodiscard]] std::size_t size() const { return n_; }

  /// True when u and v conflict. u == v returns false.
  [[nodiscard]] bool adjacent(std::size_t u, std::size_t v) const;

  /// Adjacency row of u: a view into the shared row pool, valid until the
  /// next rebuild().
  [[nodiscard]] util::ConstBitsetView neighbors(std::size_t u) const {
    WDAG_REQUIRE(u < size(), "ConflictGraph::neighbors: out of range");
    return {row(u), n_};
  }

  /// Degree of u (cached at build time).
  [[nodiscard]] std::size_t degree(std::size_t u) const {
    WDAG_REQUIRE(u < size(), "ConflictGraph::degree: out of range");
    return degrees_[u];
  }

  /// Largest vertex degree, 0 for an empty graph (cached at build time).
  [[nodiscard]] std::size_t max_degree() const { return max_degree_; }

  /// Number of edges (cached at build time).
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

 private:
  void add_edge(std::size_t u, std::size_t v);

  /// Re-targets the pool to n zeroed rows of n bits, reusing storage.
  void reset_rows(std::size_t n);

  /// Computes the cached degrees / max degree / edge count from the rows.
  void finalize();

  [[nodiscard]] std::uint64_t* row(std::size_t u) {
    return pool_.data() + u * words_;
  }
  [[nodiscard]] const std::uint64_t* row(std::size_t u) const {
    return pool_.data() + u * words_;
  }

  std::vector<std::uint64_t> pool_;  ///< n_ rows of words_ words each
  std::size_t n_ = 0;      ///< vertices; each row is n_ bits wide
  std::size_t words_ = 0;  ///< words per row, ceil(n_ / 64)
  std::vector<std::uint32_t> degrees_;
  std::size_t max_degree_ = 0;
  std::size_t num_edges_ = 0;
};

}  // namespace wdag::conflict
