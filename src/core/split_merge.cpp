#include "core/split_merge.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/theorem1.hpp"
#include "dag/internal_cycle.hpp"
#include "dag/upp.hpp"
#include "graph/topo.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"

namespace wdag::core {

using graph::Arc;
using graph::ArcId;
using graph::Digraph;
using graph::VertexId;
using paths::Dipath;
using paths::DipathFamily;

namespace {

struct Stats {
  std::size_t levels = 0;
  std::size_t cycle_classes = 0;
  std::size_t fixups = 0;
};

/// A dipath family in flat form: dipath i is arcs[offsets[i] ..
/// offsets[i+1]). Dipaths are appended arc by arc, then closed.
struct FlatFamily {
  std::vector<ArcId> arcs;
  std::vector<std::uint32_t> offsets{0};

  void clear() {
    arcs.clear();
    offsets.assign(1, 0);
  }
  [[nodiscard]] std::size_t size() const { return offsets.size() - 1; }
  [[nodiscard]] std::span<const ArcId> path(std::size_t i) const {
    return {arcs.data() + offsets[i], arcs.data() + offsets[i + 1]};
  }
  /// Ends the dipath made of the arcs appended since the last close.
  void close_path() {
    offsets.push_back(static_cast<std::uint32_t>(arcs.size()));
  }
  /// Keeps the first n dipaths.
  void truncate(std::size_t n) {
    offsets.resize(n + 1);
    arcs.resize(offsets[n]);
  }
};

/// Arc -> path-ids inverted index for fit queries and the conflict scan,
/// in flat CSR form (members of arc a at ids[offsets[a] .. offsets[a+1]),
/// in path order).
struct ArcIndex {
  std::vector<std::uint32_t> offsets, ids, cursor;

  void build(std::size_t num_arcs, const FlatFamily& f) {
    offsets.assign(num_arcs + 1, 0);
    for (const ArcId a : f.arcs) ++offsets[a + 1];
    for (std::size_t a = 0; a < num_arcs; ++a) offsets[a + 1] += offsets[a];
    ids.resize(f.arcs.size());
    cursor.assign(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < f.size(); ++i) {
      for (const ArcId a : f.path(i)) {
        ids[cursor[a]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  /// True when recoloring path `victim` to `c` keeps the assignment locally
  /// valid (no same-color path shares an arc with it).
  [[nodiscard]] bool fits(const FlatFamily& f,
                          const std::vector<std::uint32_t>& color,
                          std::size_t victim, std::uint32_t c) const {
    for (const ArcId a : f.path(victim)) {
      for (std::uint32_t e = offsets[a]; e < offsets[a + 1]; ++e) {
        const std::size_t q = ids[e];
        if (q != victim && color[q] == c) return false;
      }
    }
    return true;
  }

  /// First same-color pair on an arc >= `arc` (arcs ascending, members of
  /// an arc in path order), or nullopt when none is left. Leaves `arc` at
  /// the arc where the pair was found, so the next scan resumes there.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> next_conflict(
      const std::vector<std::uint32_t>& color, std::size_t& arc) const {
    for (; arc + 1 < offsets.size(); ++arc) {
      for (std::uint32_t i = offsets[arc]; i < offsets[arc + 1]; ++i) {
        for (std::uint32_t j = i + 1; j < offsets[arc + 1]; ++j) {
          if (color[ids[i]] == color[ids[j]]) {
            return std::make_pair(ids[i], ids[j]);
          }
        }
      }
    }
    return std::nullopt;
  }
};

/// The buffers of one recursion depth. Level d + 1 holds the graph and
/// family that level d's split produced; level d pads its own family in
/// place and leaves its answer in `color`.
struct Level {
  std::vector<Arc> arcs;    ///< the split graph (unused at depth 0)
  FlatFamily family;        ///< the level's dipaths, then its padding
  std::vector<std::uint32_t> color;  ///< one colour per level dipath
  /// Padded dipath -> its image one level down (the head, when split).
  std::vector<std::uint32_t> sub;
  std::vector<std::uint32_t> split;  ///< dipaths through (a,b), in order
  std::vector<std::uint8_t> merged;  ///< 1 for the dipaths in `split`
};

/// Per-thread state of the recursion: one Level per depth, held by
/// pointer so that a deeper level growing the arena never moves a buffer
/// an outer frame is still reading, plus buffers that each level uses
/// only between recursive calls.
struct Scratch {
  std::vector<std::unique_ptr<Level>> levels;
  std::vector<dag::CycleStep> cycle;
  std::vector<std::size_t> loads, by_head_color;
  std::vector<std::uint8_t> seen;
  std::vector<std::span<const ArcId>> views;
  ArcIndex index;

  Level& level(std::size_t depth) {
    while (levels.size() <= depth) levels.push_back(std::make_unique<Level>());
    return *levels[depth];
  }
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Color-elimination descent: repeatedly dissolve the least-used color
/// class by first-fitting its members into other classes. Runs once, on
/// the top-level family, with a round cap; every move is validated by the
/// index, so the assignment stays proper throughout.
void reduce_color_classes(ArcIndex& index, std::size_t num_arcs,
                          const FlatFamily& ps,
                          std::vector<std::uint32_t>& color,
                          std::size_t max_rounds = 64) {
  if (ps.size() == 0) return;
  index.build(num_arcs, ps);
  std::uint32_t max_color = 0;
  for (const auto c : color) max_color = std::max(max_color, c);

  // Round-local buffers, reused across rounds and instances (one set per
  // thread); the descent runs once per batch instance.
  thread_local std::vector<std::size_t> usage;
  thread_local std::vector<std::uint32_t> classes, attempt;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    usage.assign(max_color + 1, 0);
    for (const auto c : color) ++usage[c];
    classes.clear();
    for (std::uint32_t c = 0; c <= max_color; ++c) {
      if (usage[c] > 0) classes.push_back(c);
    }
    if (classes.size() <= 1) return;
    std::sort(classes.begin(), classes.end(),
              [&](std::uint32_t a, std::uint32_t b) { return usage[a] < usage[b]; });
    bool improved = false;
    for (const std::uint32_t victim_class : classes) {
      attempt.assign(color.begin(), color.end());
      bool ok = true;
      for (std::size_t i = 0; i < ps.size() && ok; ++i) {
        if (attempt[i] != victim_class) continue;
        bool moved = false;
        for (const std::uint32_t c : classes) {
          if (c == victim_class) continue;
          if (index.fits(ps, attempt, i, c)) {
            attempt[i] = c;
            moved = true;
            break;
          }
        }
        ok = moved;
      }
      if (ok) {
        color.assign(attempt.begin(), attempt.end());
        improved = true;
        break;
      }
    }
    if (!improved) return;
  }
}

/// Colours level `depth`'s family on the graph with vertices
/// 0..num_vertices-1 and arc list `arcs`, leaving one colour per dipath it
/// was given in the level's `color`.
void solve_level(Scratch& s, std::size_t depth, std::size_t num_vertices,
                 std::span<const Arc> arcs, Stats& st) {
  Level& lv = s.level(depth);
  FlatFamily& fam = lv.family;
  std::vector<std::uint32_t>& color = lv.color;
  const std::size_t input = fam.size();

  // One pass answers both "is there an internal cycle?" and "which one?".
  // Without one, Theorem 1's replay colours the level where it lies.
  if (!dag::find_internal_cycle(num_vertices, arcs, s.cycle)) {
    s.views.clear();
    for (std::size_t i = 0; i < input; ++i) s.views.push_back(fam.path(i));
    replay_equal_load(num_vertices, arcs, s.views, color);
    return;
  }

  ++st.levels;

  // Split arc: maximum load among the cycle's arcs (paper's choice), the
  // first such arc in cycle-step order.
  std::vector<std::size_t>& loads = s.loads;
  loads.assign(arcs.size(), 0);
  for (const ArcId a : fam.arcs) ++loads[a];
  ArcId ab = graph::kNoArc;
  for (const auto& step : s.cycle) {
    if (ab == graph::kNoArc || loads[step.arc] > loads[ab]) ab = step.arc;
  }
  const std::size_t pi = *std::max_element(loads.begin(), loads.end());

  // Pad with single-arc copies of [a,b] up to the level's load. A coloring
  // of the padded family restricts to a (no worse) coloring of the input.
  for (std::size_t l = loads[ab]; l < pi; ++l) {
    fam.arcs.push_back(ab);
    fam.close_path();
  }
  const std::size_t padded = fam.size();

  // The split graph, one level down: (a,b) becomes (a,s) and (t,b). The
  // other arcs keep their order, so ids above (a,b) drop by one, and the
  // two new arcs come last with s = n, t = n + 1 — the ids a
  // DigraphBuilder rebuild assigns, which keep the cycle search and
  // Kahn's arc order (and so Theorem 1's colouring) as they were.
  Level& child = s.level(depth + 1);
  const VertexId sv = static_cast<VertexId>(num_vertices);
  const VertexId tv = sv + 1;
  child.arcs.clear();
  for (ArcId e = 0; e < arcs.size(); ++e) {
    if (e != ab) child.arcs.push_back(arcs[e]);
  }
  const auto arc_as = static_cast<ArcId>(child.arcs.size());
  child.arcs.push_back(Arc{arcs[ab].tail, sv});
  const auto arc_tb = static_cast<ArcId>(child.arcs.size());
  child.arcs.push_back(Arc{tv, arcs[ab].head});
  const auto down = [ab](ArcId e) { return e < ab ? e : e - 1; };

  // Transform the padded family: a dipath through (a,b) becomes a head
  // ending in (a,s) and, right after it, a tail starting with (t,b).
  FlatFamily& sub = child.family;
  sub.clear();
  lv.sub.resize(padded);
  lv.merged.assign(padded, 0);
  lv.split.clear();
  for (std::size_t i = 0; i < padded; ++i) {
    const auto path = fam.path(i);
    const auto it = std::find(path.begin(), path.end(), ab);
    lv.sub[i] = static_cast<std::uint32_t>(sub.size());
    if (it == path.end()) {
      for (const ArcId e : path) sub.arcs.push_back(down(e));
      sub.close_path();
      continue;
    }
    for (auto jt = path.begin(); jt != it; ++jt) sub.arcs.push_back(down(*jt));
    sub.arcs.push_back(arc_as);
    sub.close_path();
    sub.arcs.push_back(arc_tb);
    for (auto jt = it + 1; jt != path.end(); ++jt) sub.arcs.push_back(down(*jt));
    sub.close_path();
    lv.merged[i] = 1;
    lv.split.push_back(static_cast<std::uint32_t>(i));
  }
  WDAG_ASSERT(lv.split.size() == pi || pi == 0,
              "split_merge: split count must equal the padded load");

  solve_level(s, depth + 1, num_vertices + 2, child.arcs, st);
  const std::vector<std::uint32_t>& sub_colors = child.color;

  // ---- Merge ----------------------------------------------------------
  // Every dipath takes the colour of its image, so a rejoined dipath keeps
  // its head color: heads are pairwise distinct, so rejoined dipaths
  // (which all contain (a,b)) stay pairwise compatible.
  std::uint32_t max_color = 0;
  for (const std::uint32_t c : sub_colors) max_color = std::max(max_color, c);
  color.resize(padded);
  for (std::size_t i = 0; i < padded; ++i) color[i] = sub_colors[lv.sub[i]];

  // Heads pairwise share (a,s): their colors are pi distinct values.
  // tau maps head color -> tail color; decompose into chains and cycles.
  // Flat color-indexed table (head colors are bounded by max_color).
  constexpr std::size_t kNoPair = SIZE_MAX;
  const auto head = [&](std::size_t k) { return lv.sub[lv.split[k]]; };
  std::vector<std::size_t>& by_head_color = s.by_head_color;
  by_head_color.assign(max_color + 1, kNoPair);
  for (std::size_t k = 0; k < lv.split.size(); ++k) {
    std::size_t& slot = by_head_color[sub_colors[head(k)]];
    WDAG_ASSERT(slot == kNoPair,
                "split_merge: head colors must be pairwise distinct");
    slot = k;
  }
  // The tail of pair k sits right after its head one level down.
  const auto tau_next = [&](std::size_t k) {
    const std::uint32_t tail_color = sub_colors[head(k) + 1];
    return tail_color <= max_color ? by_head_color[tail_color] : kNoPair;
  };

  // Count tau-cycles of length >= 2 — the paper's classes C_p — for the
  // bound accounting (each such class may force one extra color, pairs of
  // 2-cycles share one; the fix-up pass below allocates lazily).
  {
    s.seen.assign(lv.split.size(), 0);
    std::size_t two_cycles = 0, longer = 0;
    for (std::size_t k0 = 0; k0 < lv.split.size(); ++k0) {
      if (s.seen[k0]) continue;
      // Walk forward through tau until repeat or dead end.
      std::size_t k = k0, length = 0;
      while (true) {
        s.seen[k] = 1;
        ++length;
        const std::size_t succ = tau_next(k);
        if (succ == kNoPair) break;                  // chain ends
        if (succ == k0 || s.seen[succ]) break;       // closed/visited
        k = succ;
      }
      const bool is_cycle = tau_next(k) == k0;
      if (is_cycle && length == 2) ++two_cycles;
      if (is_cycle && length >= 3) ++longer;
    }
    st.cycle_classes += two_cycles + longer;
  }

  // ---- Fix-up ---------------------------------------------------------
  // Rejoined dipaths now cover their tail arcs with the head color, which
  // can collide with dipaths that legitimately used that color near the
  // tail. Recolor such dipaths, searching the whole palette first: the
  // paper sends the (claimed unique, by its Fact 2) conflicting dipath to
  // the cycle's fresh color, but that uniqueness degenerates when tails
  // share the arc (t,b) (see docs/ARCHITECTURE.md), so we first-fit and
  // only then pay for a fresh color.
  //
  // A victim only ever takes a colour that fits or a fresh one, so no
  // recoloring creates a conflict: the arcs the scan has passed stay
  // clean, and resuming at the arc of the last conflict finds exactly the
  // pair a rescan from arc 0 would.
  s.index.build(arcs.size(), fam);
  std::size_t scan_arc = 0;
  while (const auto conflict = s.index.next_conflict(color, scan_arc)) {
    const auto [p, q] = *conflict;
    // Exactly one side should be a rejoined dipath; never recolor it (its
    // color is pinned by the merge). With replicated copies both sides can
    // be rejoined only if the merge produced duplicates, which the
    // head-distinctness assert above excludes.
    WDAG_ASSERT(!(lv.merged[p] && lv.merged[q]),
                "split_merge: two rejoined dipaths collide");
    const std::size_t victim = lv.merged[p] ? q : p;
    ++st.fixups;
    bool placed = false;
    for (std::uint32_t c = 0; c <= max_color && !placed; ++c) {
      if (s.index.fits(fam, color, victim, c)) {
        color[victim] = c;
        placed = true;
      }
    }
    if (!placed) {
      color[victim] = ++max_color;
      WDAG_ASSERT(s.index.fits(fam, color, victim, max_color),
                  "split_merge: fresh color still conflicts");
    }
  }

  // Drop the padding copies.
  color.resize(input);
  fam.truncate(input);
}

}  // namespace

SplitMergeResult color_upp_split_merge(const DipathFamily& family,
                                       bool preverified) {
  const Digraph& g = family.graph();
  if (!preverified) {
    WDAG_DOMAIN(graph::is_dag(g), "color_upp_split_merge: host is not a DAG");
    WDAG_DOMAIN(dag::is_upp(g),
                "color_upp_split_merge: host does not satisfy the unique-"
                "dipath property");
  }

  SplitMergeResult res;
  res.load = paths::max_load(family);
  if (family.empty()) return res;

  // Level 0 holds a flat copy of the family; its graph is g's own arc list.
  Scratch& s = scratch();
  Level& top = s.level(0);
  top.family.clear();
  for (const Dipath& p : family.paths()) {
    top.family.arcs.insert(top.family.arcs.end(), p.arcs.begin(),
                           p.arcs.end());
    top.family.close_path();
  }
  Stats st;
  solve_level(s, 0, g.num_vertices(), g.arcs(), st);
  res.coloring.assign(top.color.begin(), top.color.end());
  // Any proper coloring needs at least pi colors, so when the recursion
  // already landed on pi the descent provably cannot dissolve a class —
  // skip it. Revalidation is skipped on that path too: every level's
  // fix-up ends only when its conflict scan has passed the last arc, and
  // since no recoloring creates a conflict, the arcs it passed earlier
  // are still clean.
  bool revalidate = false;
  if (conflict::num_colors(res.coloring) > res.load) {
    reduce_color_classes(s.index, g.num_arcs(), top.family, res.coloring);
    revalidate = true;
  }
  res.levels = st.levels;
  res.cycle_classes = st.cycle_classes;
  res.fixups = st.fixups;
  res.wavelengths = conflict::normalize_colors(res.coloring);

  WDAG_ASSERT(!revalidate ||
                  conflict::is_valid_assignment(family, res.coloring),
              "color_upp_split_merge: invalid assignment produced");
  return res;
}

}  // namespace wdag::core
