#pragma once
// Structural queries: sources, sinks, internal vertices, simplicity,
// connectivity of the underlying undirected multigraph.
//
// "Internal vertex" is the paper's key notion: a vertex with at least one
// predecessor AND at least one successor in G. An internal cycle may only
// visit internal vertices.

#include <vector>

#include "graph/digraph.hpp"

namespace wdag::graph {

/// Vertices with in-degree 0.
std::vector<VertexId> sources(const Digraph& g);

/// Vertices with out-degree 0.
std::vector<VertexId> sinks(const Digraph& g);

/// Boolean mask: internal[v] == true iff in_degree(v) > 0 and
/// out_degree(v) > 0 (v is neither a source nor a sink).
std::vector<bool> internal_vertex_mask(const Digraph& g);

/// Ids of internal vertices in increasing order.
std::vector<VertexId> internal_vertices(const Digraph& g);

/// True when g has no parallel arcs (same tail and head twice).
bool is_simple(const Digraph& g);

/// Connected components of the *underlying undirected* multigraph.
/// Returns component id per vertex, with ids in [0, count).
struct Components {
  std::vector<std::uint32_t> id;  ///< component id per vertex
  std::size_t count = 0;          ///< number of components
};
Components underlying_components(const Digraph& g);

/// True when the underlying undirected multigraph is connected
/// (vacuously true for the empty graph).
bool is_underlying_connected(const Digraph& g);

}  // namespace wdag::graph
