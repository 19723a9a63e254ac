#pragma once
// Theorem 6 and its recursive generalization: wavelength assignment on
// UPP-DAGs *with* internal cycles via arc splitting.
//
// For a UPP-DAG with exactly one internal cycle the paper proves
//     w(G,P) <= ceil(4/3 * pi(G,P)),
// tight (Theorem 7), via:
//
//  1. pick the arc (a,b) of maximum load on the internal cycle;
//  2. pad the family with copies of the single-arc dipath [a,b] until
//     load(a,b) == pi (this can only help: a coloring of the padded family
//     restricts to one of the original);
//  3. split: replace (a,b) by (a,s) and (t,b) with fresh vertices s, t and
//     cut every dipath through (a,b) into a head [x..a,s] and a tail
//     [t,b..y]. The split graph has one internal cycle fewer;
//  4. color the split instance (recursively; the base case is Theorem 1);
//  5. merge: the pi heads all share (a,s) so they hold pi distinct colors,
//     and likewise the pi tails. The pairing head-color -> tail-color is a
//     partial bijection whose functional graph splits into chains and
//     cycles — the paper's classes C_p are exactly the cycles of length p.
//     Chains and fixed points merge for free (each rejoined dipath keeps
//     its head color); every longer cycle pays one fresh color, with pairs
//     of 2-cycles sharing one (the 4/3 refinement);
//  6. fix-up: a rejoined dipath keeps its head color but now also covers
//     its tail arcs, which can collide with a dipath that validly used that
//     color on the tail side. The paper recolors those (unique, by its
//     Facts 1-2) onto the fresh color. With replicated copies of identical
//     dipaths the uniqueness argument degrades (see docs/ARCHITECTURE.md,
//     "Split-merge with replicated dipaths"), so the fix-up below is
//     defensive: it first-fits conflicting dipaths into the extra-color
//     pool, growing the pool only when forced. A victim only ever takes a
//     colour that fits or a fresh one, so a recoloring never creates a
//     conflict: each fix strictly removes conflicts (the pass terminates),
//     and no arc the conflict scan has passed can regain one. The scan
//     therefore resumes at the arc of the last conflict and still finds
//     the same sequence of pairs as a rescan from arc 0; it ends only once
//     it has passed the last arc, which certifies the whole assignment.
//
// With C internal cycles the recursion yields w <= ceil((4/3)^C * pi)
// (the paper's concluding remark in §4).
//
// The recursion works in place: each depth owns flat buffers (an arc list
// for its graph, one arc buffer plus per-path offsets for its family)
// that persist per thread, and the split rewrites the arc list with the
// ids a DigraphBuilder rebuild would assign. See docs/ARCHITECTURE.md,
// "Split in place".

#include <cstddef>

#include "conflict/coloring.hpp"
#include "paths/family.hpp"

namespace wdag::core {

/// Result of the split-merge solver.
struct SplitMergeResult {
  conflict::Coloring coloring;     ///< wavelength per original path id
  std::size_t wavelengths = 0;     ///< colors used
  std::size_t load = 0;            ///< pi(G,P) of the original instance
  std::size_t levels = 0;          ///< split recursion depth (== cycles split)
  std::size_t cycle_classes = 0;   ///< total non-trivial tau-cycles seen
  std::size_t fixups = 0;          ///< dipaths recolored by fix-up passes
};

/// Colors a family on a UPP-DAG with any number of internal cycles.
/// Falls through to Theorem 1 when there is no internal cycle.
///
/// Preconditions (checked): host is a DAG and satisfies the UPP.
/// Postcondition: the assignment is valid (validated before returning).
/// For one internal cycle the paper guarantees
/// wavelengths <= ceil(4/3 * load) on families of distinct-route dipaths;
/// the bench E6 measures how the implementation tracks that bound.
///
/// `preverified` skips the is-DAG / UPP precondition checks; pass true
/// only when the caller has already established both (the dispatcher,
/// `api::solve_with` in api/strategy.cpp, classifies the host once and
/// reuses the verdict).
SplitMergeResult color_upp_split_merge(const paths::DipathFamily& family,
                                       bool preverified = false);

}  // namespace wdag::core
