#pragma once
// The Unique-diPath Property (UPP).
//
// A DAG is a UPP-DAG when there is at most one dipath between any ordered
// pair of vertices (paper §2). For UPP-DAGs requests and dipaths are
// interchangeable, the conflict relation satisfies the Helly property, and
// the load equals the clique number of the conflict graph (Property 3).
//
// is_upp() reads the host index (dag/host_index.hpp). Up to 4,096
// vertices it pushes ancestor cones forward along the out-arcs in
// topological order, O(m * n/64) word operations over one per-thread word
// pool, and flags the host when a push meets the cone it joins. Above
// that, where the cones' O(n^2) bits stop paying for themselves, a
// saturating path-count dynamic program runs per start vertex, O(n*m)
// total, fanned out over the thread pool. find_upp_violation() and
// count_dipaths() run that DP directly.

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::dag {

/// Number of distinct dipaths from u to v, saturated at `cap`.
/// u == v counts the empty dipath (1). Requires a DAG.
std::uint64_t count_dipaths(const graph::Digraph& g, graph::VertexId u,
                            graph::VertexId v, std::uint64_t cap = 2);

/// A pair of vertices joined by two or more distinct dipaths, with two
/// explicit witnesses (as arc sequences).
struct UppViolation {
  graph::VertexId from = graph::kNoVertex;
  graph::VertexId to = graph::kNoVertex;
  std::vector<graph::ArcId> path1;
  std::vector<graph::ArcId> path2;
};

/// True when g is a UPP-DAG. Requires a DAG (throws DomainError otherwise).
bool is_upp(const graph::Digraph& g);

/// is_upp() with a caller-supplied topological order of g (must be valid).
/// The order is not read: the host index builds its own with the
/// out-lists the cone pass walks, so this is is_upp(g).
bool is_upp(const graph::Digraph& g,
            const std::vector<graph::VertexId>& order);

/// Returns a violation witness, or nullopt when g is UPP.
/// The witness pair is the lexicographically smallest (from, to) violating
/// pair; the two paths differ in at least one arc.
std::optional<UppViolation> find_upp_violation(const graph::Digraph& g);

}  // namespace wdag::dag
