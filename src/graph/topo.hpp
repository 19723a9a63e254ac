#pragma once
// Topological ordering and acyclicity tests.
//
// The Theorem-1 colorer relies on a specific property of Kahn's algorithm:
// arcs emitted in topological order of their *tails* leave any dipath
// strictly from the front (see core/theorem1.cpp).
//
// Every query here reads one topology index, built from the vertex count
// and the arc list alone into per-thread tables: the in-degrees, the
// out-lists in CSR form and Kahn's order. The dag layer's host index
// (dag/host_index.hpp) extends it with the paper's structure.

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
/// split-merge recursion keeps its split graphs in. Both overloads read
/// index_topology(), so both return the same sequence.
void arcs_in_tail_topo_order_into(std::size_t num_vertices,
                                  std::span<const Arc> arcs,
                                  std::vector<ArcId>& out);

/// The topology of the graph on vertices 0..num_vertices-1 whose arc `a`
/// is arcs[a].
struct TopoIndex {
  std::vector<std::uint32_t> in_degree;  ///< per vertex
  /// Out-lists in CSR form: the arcs leaving v are
  /// out_list[out_begin[v] .. out_begin[v+1]), in ascending arc id like
  /// `Digraph::out_arcs`.
  std::vector<std::uint32_t> out_begin;
  std::vector<ArcId> out_list;
  /// Kahn's order: sources in ascending id, then each vertex as its last
  /// in-arc is removed, out-lists in the order above. It holds every
  /// vertex iff the graph is acyclic.
  std::vector<VertexId> order;

  [[nodiscard]] std::size_t num_vertices() const { return in_degree.size(); }
  [[nodiscard]] bool acyclic() const {
    return order.size() == in_degree.size();
  }
  [[nodiscard]] std::span<const ArcId> out_arcs(VertexId v) const {
    return {out_list.data() + out_begin[v], out_list.data() + out_begin[v + 1]};
  }
  [[nodiscard]] std::uint32_t out_degree(VertexId v) const {
    return out_begin[v + 1] - out_begin[v];
  }
};

/// Indexes the graph on vertices 0..num_vertices-1 whose arc `a` is
/// arcs[a]: two passes over the arc list lay out the degrees and the
/// out-lists, then Kahn's algorithm runs over them. The tables persist
/// per thread: valid until the thread's next call, and no allocation
/// once they have grown to the largest graph seen. This is the
/// library's one Kahn pass.
const TopoIndex& index_topology(std::size_t num_vertices,
                                std::span<const Arc> arcs);

}  // namespace wdag::graph
