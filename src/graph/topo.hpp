#pragma once
// Topological ordering and acyclicity tests.
//
// The Theorem-1 colorer relies on a specific property of Kahn's algorithm:
// arcs emitted in topological order of their *tails* leave any dipath
// strictly from the front (see core/theorem1.cpp).

#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::graph {

/// Kahn's algorithm. Returns the vertices in a topological order, or
/// nullopt when the digraph has a directed cycle.
std::optional<std::vector<VertexId>> topological_sort(const Digraph& g);

/// True when g has no directed cycle.
bool is_dag(const Digraph& g);

/// Position of each vertex in `order` (inverse permutation).
/// order must be a permutation of the vertex ids of g.
std::vector<std::uint32_t> topo_positions(const Digraph& g,
                                          const std::vector<VertexId>& order);

/// Arcs of g sorted by topological position of their tail (ties by arc id).
/// Precondition: g is a DAG.
///
/// This is exactly the arc *removal* sequence of the Theorem-1 induction:
/// removing arcs in this order, the tail of each removed arc is a source of
/// the remaining graph.
std::vector<ArcId> arcs_in_tail_topo_order(const Digraph& g);

/// arcs_in_tail_topo_order(), written into a caller-owned buffer so hot
/// loops (the Theorem-1 replay runs once per batch instance) can reuse it.
void arcs_in_tail_topo_order_into(const Digraph& g, std::vector<ArcId>& out);

/// The same order for the graph on vertices 0..num_vertices-1 whose arc
/// `a` is arcs[a] — the form `Digraph::arcs()` returns, and the form the
/// split-merge recursion keeps its split graphs in. Degrees and out-lists
/// are rebuilt in thread-local buffers, out-lists in ascending arc id like
/// `Digraph::out_arcs`, so both overloads return the same sequence. This
/// is the one implementation; the Digraph overload forwards to it.
void arcs_in_tail_topo_order_into(std::size_t num_vertices,
                                  std::span<const Arc> arcs,
                                  std::vector<ArcId>& out);

}  // namespace wdag::graph
