#pragma once
// Internal-cycle detection — the paper's central structural criterion.
//
// An *internal cycle* of a DAG G is an oriented cycle all of whose vertices
// are internal (indegree > 0 and outdegree > 0 in G). The Main Theorem
// states: w(G,P) == pi(G,P) for every family P iff G has no internal cycle.
//
// Detection reduces to acyclicity of the underlying undirected multigraph
// restricted to arcs between internal vertices: any undirected cycle there
// is an oriented cycle of G visiting only internal vertices, and
// conversely. The yes/no and count queries read the host index's
// union-find count (dag/host_index.hpp); a DFS extracts explicit cycles.

#include <optional>
#include <span>
#include <vector>

#include "dag/oriented_cycle.hpp"
#include "graph/digraph.hpp"

namespace wdag::dag {

/// True when g (assumed a DAG) contains an internal cycle.
bool has_internal_cycle(const graph::Digraph& g);

/// Number of independent internal cycles: the cyclomatic number
/// m' - n' + c' of the underlying sub-multigraph induced by internal
/// vertices. 0 means "no internal cycle" (Theorem 1 applies); 1 means
/// "exactly one" (Theorem 6 applies to UPP-DAGs).
std::size_t internal_cycle_count(const graph::Digraph& g);

/// Extracts one internal cycle, or nullopt when none exists.
/// The returned cycle is a valid OrientedCycle of g visiting only internal
/// vertices; the result is deterministic for a given graph.
std::optional<OrientedCycle> find_internal_cycle(const graph::Digraph& g);

/// find_internal_cycle() for the graph on vertices 0..num_vertices-1 whose
/// arc `a` is arcs[a] (the form `Digraph::arcs()` returns). Writes the
/// cycle's steps into `steps` and returns true, or returns false when
/// there is none. Degrees, the undirected incidence and the DFS state live
/// in thread-local buffers, so a caller that reuses `steps` allocates
/// nothing once warm. This is the one implementation; the Digraph overload
/// forwards to it, and both return the same cycle.
bool find_internal_cycle(std::size_t num_vertices,
                         std::span<const graph::Arc> arcs,
                         std::vector<CycleStep>& steps);

/// True when `c` is a valid oriented cycle of g whose vertices are all
/// internal in g.
bool is_internal_cycle(const graph::Digraph& g, const OrientedCycle& c);

}  // namespace wdag::dag
