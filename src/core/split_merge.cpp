#include "core/split_merge.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/theorem1.hpp"
#include "dag/internal_cycle.hpp"
#include "dag/upp.hpp"
#include "graph/topo.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"

namespace wdag::core {

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

/// Arc loads for a raw path vector, into a reused buffer.
void loads_of_into(const Digraph& g, const std::vector<Dipath>& ps,
                   std::vector<std::size_t>& loads) {
  loads.assign(g.num_arcs(), 0);
  for (const Dipath& p : ps) {
    for (ArcId a : p.arcs) ++loads[a];
  }
}

/// Arc -> path-ids inverted index for fast fit queries, in flat CSR form
/// (members of arc a at ids[offsets[a] .. offsets[a+1]), in path order).
struct ConflictIndex {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> ids;

  ConflictIndex(const Digraph& g, const std::vector<Dipath>& ps) {
    offsets.assign(g.num_arcs() + 1, 0);
    std::size_t total = 0;
    for (const Dipath& p : ps) {
      for (const ArcId a : p.arcs) ++offsets[a + 1];
      total += p.arcs.size();
    }
    for (std::size_t a = 0; a < g.num_arcs(); ++a) offsets[a + 1] += offsets[a];
    ids.resize(total);
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      for (const ArcId a : ps[i].arcs) {
        ids[cursor[a]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  /// True when recoloring path `victim` to `c` keeps the assignment locally
  /// valid (no same-color path shares an arc with it).
  [[nodiscard]] bool fits(const std::vector<Dipath>& ps,
                          const std::vector<std::uint32_t>& color,
                          std::size_t victim, std::uint32_t c) const {
    for (const ArcId a : ps[victim].arcs) {
      for (std::uint32_t e = offsets[a]; e < offsets[a + 1]; ++e) {
        const std::size_t q = ids[e];
        if (q != victim && q < color.size() && color[q] == c) return false;
      }
    }
    return true;
  }
};

/// First conflicting same-color pair, or nullopt when the coloring is
/// valid. Scans the prebuilt index (arc ascending, members in path order),
/// so the fix-up loop does not rebuild the incidence every iteration.
std::optional<std::pair<std::size_t, std::size_t>> first_conflict(
    const ConflictIndex& index, const std::vector<std::uint32_t>& color) {
  for (std::size_t a = 0; a + 1 < index.offsets.size(); ++a) {
    for (std::uint32_t i = index.offsets[a]; i < index.offsets[a + 1]; ++i) {
      for (std::uint32_t j = i + 1; j < index.offsets[a + 1]; ++j) {
        if (color[index.ids[i]] == color[index.ids[j]]) {
          return std::make_pair<std::size_t, std::size_t>(index.ids[i],
                                                          index.ids[j]);
        }
      }
    }
  }
  return std::nullopt;
}

/// Color-elimination descent: repeatedly dissolve the least-used color
/// class by first-fitting its members into other classes. Runs once, on
/// the top-level family, with a round cap; every move is validated by the
/// index, so the assignment stays proper throughout.
void reduce_color_classes(const Digraph& g, const std::vector<Dipath>& ps,
                          std::vector<std::uint32_t>& color,
                          std::size_t max_rounds = 64) {
  if (ps.empty()) return;
  const ConflictIndex index(g, ps);
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

std::vector<std::uint32_t> solve_rec(const Digraph& g,
                                     const std::vector<Dipath>& input,
                                     Stats& st) {
  if (input.empty()) return {};

  // One pass answers both "is there an internal cycle?" and "which one?".
  const auto cycle = dag::find_internal_cycle(g);
  if (!cycle) {
    DipathFamily fam(g);
    // The recursion only re-wraps paths it just transformed arc-by-arc;
    // re-validating each one is the base case's dominant cost.
    for (const Dipath& p : input) fam.add_unchecked(p);
    // Preconditions hold by construction: the recursion only ever splits
    // a DAG, and the internal-cycle check just ran.
    return color_equal_load(fam, /*preverified=*/true).coloring;
  }

  ++st.levels;

  // Split arc: maximum load among the cycle's arcs (paper's choice).
  // `loads` and `arc_map` are dead before the recursive call, so one
  // thread-local buffer each serves every level.
  thread_local std::vector<std::size_t> loads;
  loads_of_into(g, input, loads);
  ArcId ab = graph::kNoArc;
  for (const auto& step : cycle->steps) {
    if (ab == graph::kNoArc || loads[step.arc] > loads[ab]) ab = step.arc;
  }
  const std::size_t pi =
      *std::max_element(loads.begin(), loads.end());

  // Pad with single-arc copies of [a,b] up to the global load. A coloring
  // of the padded family restricts to a (no worse) coloring of the input.
  std::vector<Dipath> padded;
  padded.reserve(input.size() + (pi - loads[ab]));
  padded = input;
  for (std::size_t l = loads[ab]; l < pi; ++l) {
    padded.push_back(Dipath({ab}));
  }

  // Build the split graph: (a,b) becomes (a,s) and (t,b).
  const auto& g_arcs = g.arcs();
  const VertexId a = g_arcs[ab].tail;
  const VertexId b = g_arcs[ab].head;
  const VertexId n = static_cast<VertexId>(g.num_vertices());
  graph::DigraphBuilder builder(g.num_vertices());
  thread_local std::vector<ArcId> arc_map;
  arc_map.assign(g.num_arcs(), graph::kNoArc);
  for (ArcId e = 0; e < g.num_arcs(); ++e) {
    if (e == ab) continue;
    arc_map[e] = builder.add_arc(g_arcs[e].tail, g_arcs[e].head);
  }
  const VertexId s = builder.add_vertex("split_s");
  const VertexId t = builder.add_vertex("split_t");
  WDAG_ASSERT(s == n && t == n + 1, "split_merge: unexpected split vertex ids");
  const ArcId arc_as = builder.add_arc(a, s);
  const ArcId arc_tb = builder.add_arc(t, b);
  const Digraph g2 = builder.build();

  // Transform the padded family.
  struct SplitPair {
    std::size_t orig;  // index into `padded`
    std::size_t head;  // index into `sub`
    std::size_t tail;  // index into `sub`
  };
  std::vector<Dipath> sub;
  sub.reserve(padded.size() + pi);  // every split path contributes two
  std::vector<std::optional<std::size_t>> nonsplit_map(padded.size());
  std::vector<SplitPair> pairs;
  pairs.reserve(pi);
  for (std::size_t i = 0; i < padded.size(); ++i) {
    const auto& arcs = padded[i].arcs;
    const auto it = std::find(arcs.begin(), arcs.end(), ab);
    if (it == arcs.end()) {
      Dipath q;
      q.arcs.reserve(arcs.size());
      for (ArcId e : arcs) q.arcs.push_back(arc_map[e]);
      sub.push_back(std::move(q));
      nonsplit_map[i] = sub.size() - 1;
      continue;
    }
    Dipath head, tail;
    for (auto jt = arcs.begin(); jt != it; ++jt) head.arcs.push_back(arc_map[*jt]);
    head.arcs.push_back(arc_as);
    tail.arcs.push_back(arc_tb);
    for (auto jt = it + 1; jt != arcs.end(); ++jt) tail.arcs.push_back(arc_map[*jt]);
    sub.push_back(std::move(head));
    const std::size_t head_id = sub.size() - 1;
    sub.push_back(std::move(tail));
    pairs.push_back(SplitPair{i, head_id, sub.size() - 1});
  }
  WDAG_ASSERT(pairs.size() == pi || pi == 0,
              "split_merge: split count must equal the padded load");

  const auto sub_colors = solve_rec(g2, sub, st);

  // ---- Merge ----------------------------------------------------------
  std::vector<std::uint32_t> color(padded.size(), UINT32_MAX);
  std::uint32_t max_color = 0;
  for (const std::uint32_t c : sub_colors) max_color = std::max(max_color, c);

  for (std::size_t i = 0; i < padded.size(); ++i) {
    if (nonsplit_map[i]) color[i] = sub_colors[*nonsplit_map[i]];
  }

  // Heads pairwise share (a,s): their colors are pi distinct values.
  // tau maps head color -> tail color; decompose into chains and cycles.
  // Flat color-indexed table (head colors are bounded by max_color).
  constexpr std::size_t kNoPair = SIZE_MAX;
  std::vector<std::size_t> by_head_color(max_color + 1, kNoPair);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    std::size_t& slot = by_head_color[sub_colors[pairs[k].head]];
    WDAG_ASSERT(slot == kNoPair,
                "split_merge: head colors must be pairwise distinct");
    slot = k;
  }
  const auto tau_next = [&](std::uint32_t tail_color) {
    return tail_color <= max_color ? by_head_color[tail_color] : kNoPair;
  };
  // Every merged dipath keeps its head color: heads are pairwise distinct,
  // so merged dipaths (which all contain (a,b)) stay pairwise compatible.
  for (const SplitPair& pr : pairs) {
    color[pr.orig] = sub_colors[pr.head];
  }

  // Count tau-cycles of length >= 2 — the paper's classes C_p — for the
  // bound accounting (each such class may force one extra color, pairs of
  // 2-cycles share one; the fix-up pass below allocates lazily).
  {
    std::vector<std::int8_t> seen(pairs.size(), 0);
    std::size_t two_cycles = 0, longer = 0;
    for (std::size_t k0 = 0; k0 < pairs.size(); ++k0) {
      if (seen[k0]) continue;
      // Walk forward through tau until repeat or dead end.
      std::vector<std::size_t> walk;
      std::size_t k = k0;
      while (true) {
        seen[k] = 1;
        walk.push_back(k);
        const std::size_t succ = tau_next(sub_colors[pairs[k].tail]);
        if (succ == kNoPair) break;                // chain ends
        if (succ == k0 || seen[succ]) break;       // closed/visited
        k = succ;
      }
      const std::size_t closes = tau_next(sub_colors[pairs[walk.back()].tail]);
      const bool is_cycle = closes == k0;
      if (is_cycle && walk.size() == 2) ++two_cycles;
      if (is_cycle && walk.size() >= 3) ++longer;
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
  std::vector<bool> merged(padded.size(), false);
  for (const SplitPair& pr : pairs) merged[pr.orig] = true;

  const ConflictIndex index(g, padded);
  while (const auto conflict = first_conflict(index, color)) {
    const auto [p, q] = *conflict;
    // Exactly one side should be a rejoined dipath; never recolor it (its
    // color is pinned by the merge). With replicated copies both sides can
    // be rejoined only if the merge produced duplicates, which the
    // head-distinctness assert above excludes.
    std::size_t victim;
    if (merged[p] && merged[q]) {
      WDAG_ASSERT(false, "split_merge: two rejoined dipaths collide");
    }
    victim = merged[p] ? q : p;
    ++st.fixups;
    bool placed = false;
    for (std::uint32_t c = 0; c <= max_color && !placed; ++c) {
      if (index.fits(padded, color, victim, c)) {
        color[victim] = c;
        placed = true;
      }
    }
    if (!placed) {
      color[victim] = ++max_color;
      WDAG_ASSERT(index.fits(padded, color, victim, max_color),
                  "split_merge: fresh color still conflicts");
    }
  }

  color.resize(input.size());  // drop the padding copies
  return color;
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

  Stats st;
  res.coloring = solve_rec(g, family.paths(), st);
  // Any proper coloring needs at least pi colors, so when the recursion
  // already landed on pi the descent provably cannot dissolve a class —
  // skip building its conflict index. The recursion's fix-up loop exits
  // only once an exhaustive conflict scan comes back clean, so the
  // assignment is already validated on this fast path.
  bool revalidate = false;
  if (conflict::num_colors(res.coloring) > res.load) {
    reduce_color_classes(g, family.paths(), res.coloring);
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
