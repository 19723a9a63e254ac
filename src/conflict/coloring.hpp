#pragma once
// Wavelength assignments (proper colorings of the conflict graph) and the
// heuristic baselines the benches compare against the paper's constructive
// algorithms.

#include <cstdint>
#include <vector>

#include "conflict/conflict_graph.hpp"
#include "paths/family.hpp"

namespace wdag::conflict {

/// A color (wavelength) per path id.
using Coloring = std::vector<std::uint32_t>;

/// Number of distinct colors used (assumes colors are arbitrary ids).
std::size_t num_colors(const Coloring& c);

/// Renumbers colors to 0..k-1 preserving classes; returns k.
std::size_t normalize_colors(Coloring& c);

/// True when no conflict-graph edge is monochromatic.
bool is_valid_coloring(const ConflictGraph& cg, const Coloring& c);

/// Independent validity check straight from the family: for every arc, all
/// dipaths through it have pairwise distinct colors. Used to cross-check
/// the conflict-graph path.
bool is_valid_assignment(const paths::DipathFamily& family, const Coloring& c);

/// First-fit greedy in the given vertex order.
Coloring greedy_coloring(const ConflictGraph& cg,
                         const std::vector<std::size_t>& order);

/// First-fit greedy in natural order 0..n-1.
Coloring greedy_coloring(const ConflictGraph& cg);

/// DSATUR heuristic (Brélaz). Pick-order contract: each step colors the
/// uncolored vertex with the most distinct neighbor colors (saturation),
/// ties to the higher degree, then to the lower index, with the lowest
/// color none of its neighbors has. Batch bytes and the exact solver's
/// upper bound depend on these exact picks.
///
/// No priority queue: vertices carry a static rank (degree descending,
/// then index), and each saturation level 0..max_degree keeps a rank
/// bitset, so a pick is the lowest rank in the highest non-empty level.
/// One vertex bitset per color finds, a word at a time, the neighbors
/// whose saturation a new color raises, and a vertex's color is the first
/// color set it is not in. O(n * ceil(n / 64) + m) time for n vertices
/// and m edges; the tables, (max_degree + 1) sets of n bits per level and
/// per color, persist per thread and never outgrow the adjacency rows.
Coloring dsatur_coloring(const ConflictGraph& cg);

}  // namespace wdag::conflict
