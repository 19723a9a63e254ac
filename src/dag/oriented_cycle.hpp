#pragma once
// Oriented cycles in DAGs.
//
// A DAG has no *directed* cycle, but its underlying undirected multigraph
// may contain cycles; traversed in the underlying graph such a cycle uses
// some arcs forward and some backward (paper, Figure 2a). It therefore
// decomposes into an even number 2k of maximal directed runs, alternating
// direction, between k "cycle sources" b_i (both incident cycle arcs leave
// b_i) and k "cycle sinks" c_i (both incident cycle arcs enter c_i).

#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace wdag::dag {

/// One traversal step of an oriented cycle: arc `arc`, walked from tail to
/// head when `forward`, else from head to tail.
struct CycleStep {
  graph::ArcId arc = graph::kNoArc;
  bool forward = true;

  bool operator==(const CycleStep&) const = default;
};

/// A closed walk in the underlying multigraph with no repeated arc.
/// steps[i] ends where steps[i+1] starts (cyclically).
struct OrientedCycle {
  std::vector<CycleStep> steps;

  [[nodiscard]] bool empty() const { return steps.empty(); }
  [[nodiscard]] std::size_t size() const { return steps.size(); }
};

/// Start vertex of a step within graph g.
graph::VertexId step_start(const graph::Digraph& g, const CycleStep& s);

/// End vertex of a step within graph g.
graph::VertexId step_end(const graph::Digraph& g, const CycleStep& s);

/// Checks closure and arc-distinctness of an oriented cycle in g.
bool is_valid_oriented_cycle(const graph::Digraph& g, const OrientedCycle& c);

/// The same check for the cycle `steps` in the graph whose arc `a` is
/// arcs[a]. Repeated arcs are found with a per-arc mark buffer
/// (thread-local). This is the one implementation; the Digraph overload
/// forwards to it.
bool is_valid_oriented_cycle(std::span<const graph::Arc> arcs,
                             std::span<const CycleStep> steps);

/// Vertices visited by the cycle, in walk order (one entry per step start).
std::vector<graph::VertexId> cycle_vertices(const graph::Digraph& g,
                                            const OrientedCycle& c);

/// The canonical alternating-run decomposition of an oriented cycle
/// (paper §2): b_i --A_i--> c_i and b_{i+1} --B_{i+1}--> c_i, indices mod k.
///
/// Runs are stored forward (as dipaths): run_a[i] goes b_i -> c_i and
/// run_b[i] goes b_i -> c_{i-1} (i.e. b_{i+1} -> c_i is run_b[(i+1) mod k]).
struct CycleDecomposition {
  std::vector<graph::VertexId> b;               ///< cycle sources b_1..b_k (0-indexed)
  std::vector<graph::VertexId> c;               ///< cycle sinks  c_1..c_k (0-indexed)
  std::vector<std::vector<graph::ArcId>> run_a; ///< A_i : b_i -> c_i
  std::vector<std::vector<graph::ArcId>> run_b; ///< B_i : b_i -> c_{i-1 mod k}

  [[nodiscard]] std::size_t k() const { return b.size(); }
};

/// Decomposes a valid oriented cycle of a DAG into alternating runs.
/// Throws wdag::InvalidArgument when the cycle is invalid or fully directed
/// (impossible in a DAG).
CycleDecomposition decompose_cycle(const graph::Digraph& g,
                                   const OrientedCycle& c);

/// Human-readable rendering ("b1 ->A-> c1 <-B- b2 ...") for diagnostics.
std::string cycle_to_string(const graph::Digraph& g, const OrientedCycle& c);

}  // namespace wdag::dag
