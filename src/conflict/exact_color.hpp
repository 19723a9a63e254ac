#pragma once
// Exact chromatic number of a conflict graph.
//
// w(G,P) is NP-hard in general (paper §1), so "w equals ..." claims are
// certified by this exact solver on instance sizes where it is fast. For
// each k from the lower bound up to the upper bound minus one, it runs a
// backtracking k-coloring search; the first k that succeeds is chi.
//
// The search:
//  * picks vertices in DSATUR order (most distinct neighbor colors, then
//    highest degree, then lowest index) and lets a vertex open at most one
//    new color, which breaks the symmetry between unused colors;
//  * works on bit planes, one bit per vertex: for each color c the set of
//    vertices with a neighbor colored c (so "v may take c" is one bit
//    test), the saturations as bit-sliced counters over
//    ceil(log2(maxdeg + 1)) planes, and the degrees as planes built once
//    per call. A pick narrows the uncolored set plane by plane,
//    saturation then degree, highest bit first, and takes the lowest id;
//    coloring v with c adds the neighbors new to c's set to the counters
//    a 64-bit word at a time, and that set, saved per depth, undoes it.
//    Graphs of at most 64 vertices run a one-word instantiation;
//  * applies a twin rule. Vertices with equal closed neighborhoods
//    (identical dipaths among them) are interchangeable, so within such a
//    class colors must increase with vertex index. The rule stays sound
//    next to the one-new-color rule only because every class is colored
//    in index order. The pick already guarantees that: uncolored twins
//    have equal saturations and equal degrees, so the lowest id among
//    them wins the tie, and the search asserts that the picked vertex is
//    the lowest uncolored member of its class.
//
// Its tables persist per thread, so once warm the search allocates
// nothing but the coloring it returns.
//
// Bounds contract. The two-argument chromatic_number computes its own
// bounds: DSATUR above, the maximum clique below. The bounded overload
// takes the caller's: a proven lower bound (the load pi, since the
// dipaths through a max-load arc pairwise conflict), whether that bound
// already is the clique number (pi is, on UPP hosts, by Property 3), and
// a valid coloring whose color count is the upper bound. It runs
// max_clique only when the lower bound is not known to be the clique
// number and lies below the upper bound, and searches nothing when the
// bounds meet.

#include <cstddef>
#include <optional>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"

namespace wdag::conflict {

/// Result of an exact chromatic computation.
struct ChromaticResult {
  std::size_t chromatic_number = 0;
  Coloring coloring;        ///< an optimal proper coloring
  std::size_t nodes = 0;    ///< search-tree nodes explored
  bool proven = true;       ///< false when the node budget was exhausted
};

/// Bounds on chi that the caller already holds.
struct ChromaticBounds {
  /// A proven lower bound on chi, e.g. the load pi.
  std::size_t lower = 0;
  /// True when `lower` is the clique number itself (pi on UPP hosts), so
  /// max_clique cannot raise it.
  bool lower_is_clique = false;
  /// A valid coloring; its color count is the upper bound.
  Coloring upper;
};

/// Computes the chromatic number exactly.
/// `node_budget` bounds the search for each k; when it is exhausted,
/// `proven` is false and the best coloring found so far is returned
/// (still valid).
ChromaticResult chromatic_number(const ConflictGraph& cg,
                                 std::size_t node_budget = 50'000'000);

/// The same search between the caller's bounds. When no k below the
/// upper bound succeeds, the result's coloring is `bounds.upper`.
/// Throws wdag::InvalidArgument when `bounds.upper` is not a valid coloring
/// of cg or uses fewer colors than `bounds.lower`.
ChromaticResult chromatic_number(const ConflictGraph& cg,
                                 ChromaticBounds bounds,
                                 std::size_t node_budget);

/// Decision variant: can cg be colored with at most k colors?
/// Returns a coloring when satisfiable, nullopt otherwise (within budget;
/// throws wdag::InternalError when the budget is hit, since a wrong answer
/// would poison the benches). A clique of more than k vertices answers
/// nullopt before any search: the greedy clique first, then max_clique.
std::optional<Coloring> try_color_with(const ConflictGraph& cg, std::size_t k,
                                       std::size_t node_budget = 50'000'000);

}  // namespace wdag::conflict
