#pragma once
// Theorem 1 (the paper's primary contribution), as an algorithm:
//
//   Let G be a DAG without internal cycle. Then for every family of dipaths
//   P, the minimum number of wavelengths w(G,P) equals the load pi(G,P).
//
// The proof is by induction on arcs and is fully constructive; this module
// implements it as an O(poly) coloring procedure:
//
//  1. Arcs are ordered by Kahn's algorithm on their tails, so that removing
//     them in order always removes an arc whose tail is a source of the
//     remaining graph; every dipath therefore loses arcs strictly from the
//     front (its first arc is the only one whose tail can be a source).
//  2. Replaying arcs in reverse, each entering arc e extends the dipaths
//     whose next-to-restore arc is e (the family Q_0 of the proof) and
//     introduces the dipaths reduced to e itself.
//  3. The previously-colored suffixes (P_0 of the proof) must receive
//     pairwise distinct colors; when they collide, the paper's two-color
//     chain recoloring (an alpha/beta Kempe-style walk over intersecting
//     dipaths) frees a color. Case B of the proof (re-recoloring) cannot
//     occur; case C (the chain hits the kept path) would exhibit an
//     internal cycle, so on valid input it never fires — we verify the
//     precondition up front and assert it never does.
//
// The result uses exactly pi(G,P) wavelengths, certifying w == pi.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "conflict/coloring.hpp"
#include "graph/digraph.hpp"
#include "paths/family.hpp"

namespace wdag::core {

/// Statistics and certificate of a Theorem-1 run.
struct Theorem1Result {
  conflict::Coloring coloring;       ///< wavelength per path id
  std::size_t wavelengths = 0;       ///< colors used == pi(G,P)
  std::size_t load = 0;              ///< pi(G,P)
  std::size_t chain_recolorings = 0; ///< total alpha/beta chain executions
  std::size_t paths_flipped = 0;     ///< dipaths recolored across all chains
};

/// Colors `family` with exactly pi(G,P) wavelengths.
///
/// Preconditions (checked): the host graph is a DAG with no internal cycle.
/// Throws wdag::DomainError otherwise. The returned coloring is validated
/// against the family before returning.
///
/// `preverified` is the trusted-caller fast path: it skips the
/// precondition checks and the redundant final re-validation (the replay
/// maintains per-arc distinctness invariantly; w == pi is still
/// asserted). Pass true only when the caller has already established the
/// preconditions (the dispatcher, `api::solve_with`, classifies the host
/// once).
Theorem1Result color_equal_load(const paths::DipathFamily& family,
                                bool preverified = false);

/// Counters of one replay_equal_load() run.
struct ReplayCounts {
  std::size_t load = 0;               ///< pi == colours used (asserted)
  std::size_t chain_recolorings = 0;  ///< alpha/beta chain executions
  std::size_t paths_flipped = 0;      ///< dipaths recolored by the chains
};

/// The Theorem-1 replay itself, on plain storage: the host has vertices
/// 0..num_vertices-1 and arc `a` is arcs[a]; dipath p is the arc sequence
/// paths[p], read in place. Writes one colour per dipath into `coloring`
/// and asserts that exactly pi colours are used. This is the one
/// implementation: color_equal_load runs it on a DipathFamily's own
/// vectors, and the split-merge recursion on its level buffers.
/// Precondition (unchecked): the host is a DAG without internal cycle.
ReplayCounts replay_equal_load(
    std::size_t num_vertices, std::span<const graph::Arc> arcs,
    std::span<const std::span<const graph::ArcId>> paths,
    std::vector<std::uint32_t>& coloring);

}  // namespace wdag::core
