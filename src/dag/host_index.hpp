#pragma once
// The host index: the three facts the paper's dispatch rests on, derived
// once per host from its vertex count and arc list alone.
//
//   acyclicity        Kahn's order covers every vertex (graph/topo.hpp)
//   internal cycles   the union-find cyclomatic count of the arcs between
//                     internal vertices: the Main Theorem's criterion
//   UPP               no vertex has two in-arcs whose tails share an
//                     ancestor: Theorem 6's domain
//
// dag::classify, has_internal_cycle, internal_cycle_count and is_upp all
// read it, so the dag layer keeps one count and one UPP pass. The tables
// persist per thread: an index is valid until the thread's next call,
// and a warm call allocates nothing. See docs/ARCHITECTURE.md, "Host
// index". Internal to the library; not part of the installed headers.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/topo.hpp"

namespace wdag::dag {

struct HostIndex {
  const graph::TopoIndex* topo = nullptr;  ///< degrees, out-CSR, Kahn
  /// internal[v] == 1 iff v has both an in-arc and an out-arc.
  std::vector<std::uint8_t> internal;
  std::size_t num_sources = 0;  ///< in-degree 0
  std::size_t num_sinks = 0;    ///< out-degree 0
  /// Cyclomatic number of the underlying multigraph of the internal arcs
  /// (both endpoints internal); defined for any digraph.
  std::size_t internal_cycles = 0;
  /// Set only by a call `with_upp` on a DAG; false otherwise.
  bool is_upp = false;
};

/// Indexes g. Up to 4,096 vertices only g.num_vertices() and g.arcs()
/// are read; above that the UPP DP walks g's out-lists.
const HostIndex& index_host(const graph::Digraph& g, bool with_upp);

/// UPP by the saturating path-count DP from every start vertex, over a
/// topological order of g, sharded over the thread pool: the index's test
/// above 4,096 vertices (dag/upp.cpp).
bool upp_by_path_counts(const graph::Digraph& g,
                        const std::vector<graph::VertexId>& order);

}  // namespace wdag::dag
