#include "core/theorem1.hpp"

#include <algorithm>
#include <vector>

#include "dag/internal_cycle.hpp"
#include "graph/topo.hpp"
#include "util/check.hpp"

namespace wdag::core {

using graph::ArcId;
using graph::Digraph;
using paths::Dipath;
using paths::DipathFamily;
using paths::PathId;

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// One incidence record: path p contains the replayed arc at position pos.
struct IncEntry {
  PathId p;
  std::uint32_t pos;
};

/// Reusable buffers of the replay. One instance per thread: the batch
/// engine pushes thousands of instances through color_equal_load per
/// worker, and the replay's small per-arc vectors dominated its cost.
struct Scratch {
  std::vector<std::uint32_t> inc_offsets;  ///< CSR arc -> incidence entries
  std::vector<IncEntry> inc_entries;
  std::vector<std::uint32_t> begin;
  std::vector<PathId> actives, newborns, frontier, next;
  std::vector<std::uint32_t> owner, cursor;
  std::vector<std::uint8_t> used, flipped;
  std::vector<ArcId> removal_order;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Incremental state of the reverse arc-replay. Dipath p is paths[p], read
/// in place from the caller's storage; its colour is color[p].
struct Replay {
  std::span<const std::span<const ArcId>> paths;
  std::vector<std::uint32_t>& color;
  Scratch& s;
  /// Current palette size (running max load == pi of the replayed graph).
  std::uint32_t palette = 0;

  std::size_t chain_recolorings = 0;
  std::size_t paths_flipped = 0;

  Replay(std::size_t num_arcs, std::span<const std::span<const ArcId>> ps,
         std::vector<std::uint32_t>& out)
      : paths(ps), color(out), s(scratch()) {
    const std::size_t n = paths.size();
    // CSR incidence: entries of arc a at [inc_offsets[a], inc_offsets[a+1]),
    // filled in (path id, position) order like the per-arc vectors were.
    s.inc_offsets.assign(num_arcs + 1, 0);
    std::size_t total = 0;
    for (const auto& arcs : paths) {
      for (const ArcId a : arcs) ++s.inc_offsets[a + 1];
      total += arcs.size();
    }
    for (std::size_t a = 0; a < num_arcs; ++a) {
      s.inc_offsets[a + 1] += s.inc_offsets[a];
    }
    s.inc_entries.resize(total);
    s.begin.resize(n);
    color.assign(n, kNone);
    s.flipped.assign(n, 0);
    s.cursor.assign(s.inc_offsets.begin(), s.inc_offsets.end() - 1);
    for (PathId p = 0; p < n; ++p) {
      const auto& arcs = paths[p];
      s.begin[p] = static_cast<std::uint32_t>(arcs.size());
      for (std::uint32_t i = 0; i < arcs.size(); ++i) {
        s.inc_entries[s.cursor[arcs[i]]++] = IncEntry{p, i};
      }
    }
  }

  /// True when path p currently has at least one active arc.
  [[nodiscard]] bool active(PathId p) const {
    return s.begin[p] < paths[p].size();
  }

  /// Appends to `out` (deduplicated) the paths with the given color sharing
  /// an active arc with path p, excluding p itself. Only active arcs of p
  /// are scanned; an arc is active for every path containing it as soon as
  /// it is replayed.
  void conflicts_with_color(PathId p, std::uint32_t wanted,
                            std::vector<PathId>& out) const {
    const auto& arcs = paths[p];
    for (std::uint32_t i = s.begin[p]; i < arcs.size(); ++i) {
      const ArcId a = arcs[i];
      for (std::uint32_t e = s.inc_offsets[a]; e < s.inc_offsets[a + 1]; ++e) {
        const auto [q, pos] = s.inc_entries[e];
        if (q == p || color[q] != wanted) continue;
        if (s.begin[q] > pos) continue;  // arc not yet active for q
        if (std::find(out.begin(), out.end(), q) == out.end()) {
          out.push_back(q);
        }
      }
    }
  }

  /// The paper's alpha/beta chain: flips `start` from alpha to beta and
  /// propagates, keeping `kept` (colored alpha) untouched. Throws
  /// InternalError if the chain would flip an already-flipped path (case B)
  /// or the kept path (case C) — both impossible without internal cycles.
  void chain_flip(PathId kept, PathId start, std::uint32_t alpha,
                  std::uint32_t beta) {
    ++chain_recolorings;
    std::fill(s.flipped.begin(), s.flipped.end(), 0);
    s.frontier.clear();
    s.frontier.push_back(start);
    color[start] = beta;
    s.flipped[start] = 1;
    ++paths_flipped;
    std::uint32_t from = beta;  // color whose holders now conflict with the
                                // frontier (they kept `from`, frontier holds
                                // it now too)
    std::uint32_t to = alpha;
    while (!s.frontier.empty()) {
      // All paths colored `from` that intersect a frontier member must flip
      // to `to`.
      s.next.clear();
      for (const PathId f : s.frontier) {
        const std::size_t before = s.next.size();
        conflicts_with_color(f, from, s.next);
        for (std::size_t i = before; i < s.next.size(); ++i) {
          const PathId q = s.next[i];
          WDAG_ASSERT(!s.flipped[q],
                      "theorem1 chain: case B (re-flip) occurred; the host "
                      "graph must contain an internal cycle");
          WDAG_ASSERT(q != kept,
                      "theorem1 chain: case C (kept path hit) occurred; the "
                      "host graph must contain an internal cycle");
        }
      }
      for (const PathId q : s.next) {
        color[q] = to;
        s.flipped[q] = 1;
        ++paths_flipped;
      }
      std::swap(s.frontier, s.next);
      std::swap(from, to);
    }
  }

  /// Restores arc e: makes the suffix colors of the paths through e
  /// pairwise distinct, prepends e to them, and colors the paths that
  /// consist of e alone.
  void add_arc(ArcId e) {
    const std::uint32_t lo = s.inc_offsets[e];
    const std::uint32_t hi = s.inc_offsets[e + 1];
    if (lo == hi) return;
    palette = std::max(palette, hi - lo);

    s.actives.clear();   // non-empty suffixes, already colored
    s.newborns.clear();  // paths reduced to the single arc e
    for (std::uint32_t i = lo; i < hi; ++i) {
      const auto [p, pos] = s.inc_entries[i];
      WDAG_ASSERT(s.begin[p] == pos + 1,
                  "theorem1 replay: arc order violates front-removal");
      if (active(p)) {
        s.actives.push_back(p);
      } else {
        s.newborns.push_back(p);
      }
    }

    // Make the active suffix colors pairwise distinct (paper's recoloring).
    // Each successful chain strictly increases the number of distinct
    // colors used by `actives`, so at most |actives| rounds run.
    for (std::size_t guard = 0;; ++guard) {
      WDAG_ASSERT(guard <= s.actives.size() + 1,
                  "theorem1: distinct-color loop failed to make progress");
      // Find a duplicated color alpha with its two paths.
      PathId kept = kNone, dup = kNone;
      {
        s.owner.assign(palette, kNone);
        for (const PathId p : s.actives) {
          const std::uint32_t c = color[p];
          WDAG_ASSERT(c != kNone && c < palette,
                      "theorem1: active path without a palette color");
          if (s.owner[c] == kNone) {
            s.owner[c] = p;
          } else if (dup == kNone) {
            kept = s.owner[c];
            dup = p;
          }
        }
      }
      if (dup == kNone) break;  // all distinct

      // beta: a palette color used by no active suffix. It exists because
      // the actives use at most |actives|-1 <= |through|-1 < palette colors.
      s.used.assign(palette, 0);
      for (const PathId p : s.actives) s.used[color[p]] = 1;
      std::uint32_t beta = kNone;
      for (std::uint32_t c = 0; c < palette; ++c) {
        if (!s.used[c]) {
          beta = c;
          break;
        }
      }
      WDAG_ASSERT(beta != kNone, "theorem1: no free color for the chain");
      chain_flip(kept, dup, color[dup], beta);
    }

    // Prepend e to every path through it.
    for (std::uint32_t i = lo; i < hi; ++i) {
      s.begin[s.inc_entries[i].p] = s.inc_entries[i].pos;
    }

    // Color the newborn single-arc paths with colors unused on e.
    if (!s.newborns.empty()) {
      s.used.assign(palette, 0);
      for (const PathId p : s.actives) s.used[color[p]] = 1;
      std::size_t next = 0;
      for (const PathId p : s.newborns) {
        while (next < palette && s.used[next]) ++next;
        WDAG_ASSERT(next < palette,
                    "theorem1: palette exhausted while coloring newborns");
        color[p] = static_cast<std::uint32_t>(next);
        s.used[next] = 1;
      }
    }
  }
};

}  // namespace

ReplayCounts replay_equal_load(std::size_t num_vertices,
                               std::span<const graph::Arc> arcs,
                               std::span<const std::span<const ArcId>> paths,
                               std::vector<std::uint32_t>& coloring) {
  Replay replay(arcs.size(), paths, coloring);
  std::vector<ArcId>& removal_order = scratch().removal_order;
  graph::arcs_in_tail_topo_order_into(num_vertices, arcs, removal_order);
  for (auto it = removal_order.rbegin(); it != removal_order.rend(); ++it) {
    replay.add_arc(*it);
  }
  for (const std::uint32_t c : coloring) {
    WDAG_ASSERT(c != kNone, "theorem1: uncolored path remains");
  }
  // The replay's palette is exactly max group size over arcs == pi(G,P);
  // no need to recount arc loads.
  WDAG_ASSERT(conflict::num_colors(coloring) == replay.palette,
              "theorem1: wavelength count differs from the load");
  return ReplayCounts{replay.palette, replay.chain_recolorings,
                      replay.paths_flipped};
}

Theorem1Result color_equal_load(const DipathFamily& family, bool preverified) {
  const Digraph& g = family.graph();
  if (!preverified) {
    WDAG_DOMAIN(graph::is_dag(g), "color_equal_load: host graph is not a DAG");
    WDAG_DOMAIN(!dag::has_internal_cycle(g),
                "color_equal_load: host graph has an internal cycle; "
                "Theorem 1 does not apply (use the split-merge solver)");
  }

  Theorem1Result res;
  if (family.empty()) return res;

  // The replay reads each dipath in place, from the family's own vectors.
  thread_local std::vector<std::span<const ArcId>> views;
  views.clear();
  for (const Dipath& p : family.paths()) views.emplace_back(p.arcs);
  const ReplayCounts counts =
      replay_equal_load(g.num_vertices(), g.arcs(), views, res.coloring);
  res.load = counts.load;
  res.wavelengths = counts.load;  // == num_colors, asserted by the replay
  res.chain_recolorings = counts.chain_recolorings;
  res.paths_flipped = counts.paths_flipped;

  // The replay keeps per-arc colors distinct invariantly (the
  // distinct-color loop re-establishes it at every restored arc), so the
  // full re-validation only runs for direct API callers; the dispatcher's
  // trusted fast path keeps just the w == pi certificate.
  WDAG_ASSERT(preverified ||
                  conflict::is_valid_assignment(family, res.coloring),
              "theorem1: produced an invalid wavelength assignment");
  return res;
}

}  // namespace wdag::core
