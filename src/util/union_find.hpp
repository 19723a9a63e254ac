#pragma once
// Disjoint-set forest with union by rank and path halving.
//
// Used by the host index's internal-cycle count (dag/host_index.cpp):
// restricting the underlying multigraph of a DAG to its internal vertices,
// a repeated union is exactly the witness that an internal cycle exists
// (docs/ARCHITECTURE.md, "Host index"). The index keeps one per thread and
// reset() reuses its storage, so a warm count allocates nothing. The cycle
// basis and the underlying components use it too.

#include <cstdint>
#include <vector>

namespace wdag::util {

/// Classic disjoint-set (union–find) structure over {0, ..., n-1}.
class UnionFind {
 public:
  /// Creates n singleton sets.
  explicit UnionFind(std::size_t n = 0);

  /// Resets to n singleton sets.
  void reset(std::size_t n);

  /// Number of elements.
  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Number of disjoint sets currently.
  [[nodiscard]] std::size_t num_sets() const { return num_sets_; }

  /// Representative of x's set (with path halving).
  [[nodiscard]] std::size_t find(std::size_t x);

  /// Merge the sets of a and b. Returns false when they were already in the
  /// same set (i.e. this union closes a cycle).
  bool unite(std::size_t a, std::size_t b);

  /// True when a and b are in the same set.
  [[nodiscard]] bool same(std::size_t a, std::size_t b);

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t num_sets_ = 0;
};

}  // namespace wdag::util
