#include "conflict/coloring.hpp"

#include <algorithm>
#include <bit>

#include "conflict/twins.hpp"
#include "util/check.hpp"

namespace wdag::conflict {

namespace {

constexpr std::uint32_t kUncolored = UINT32_MAX;
constexpr std::uint32_t kNoEntry = UINT32_MAX;

/// Reusable buffers for the coloring kernels and validators. One instance
/// per thread, so batch workers sweep a whole chunk of instances through
/// the hot path without reallocating.
struct Scratch {
  util::DynamicBitset color_mask;        ///< first-fit neighbor-color mask
  std::vector<std::uint32_t> stamps;     ///< color -> remap / group stamp,
                                         ///< class -> last heavy neighbour
  std::vector<std::uint32_t> offsets;    ///< CSR arc incidence
  std::vector<paths::PathId> ids;
  std::vector<std::uint32_t> sorted;     ///< fallback for sparse color ids
  // DSATUR's tables (see dsatur_coloring); the bitsets are flat, one
  // fixed word stride per row.
  std::vector<std::uint32_t> rank;        ///< vertex -> static rank
  std::vector<std::uint32_t> vertex_at;   ///< static rank -> vertex
  std::vector<std::uint32_t> sat_count;   ///< class -> saturation
  std::vector<std::uint32_t> level_size;  ///< saturation -> entries in it
  std::vector<std::uint64_t> levels;      ///< per saturation: rank set
  std::vector<std::uint64_t> touched;     ///< per color: class set
  std::vector<std::uint64_t> uncolored;   ///< class set
  // DSATUR over twin classes only (see dsatur_over).
  std::vector<std::uint32_t> entry;         ///< class -> rank of its entry
  std::vector<std::uint32_t> class_degree;  ///< class -> dipath degree
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

std::uint32_t max_color_of(const Coloring& c) {
  std::uint32_t m = 0;
  for (const auto col : c) m = std::max(m, col);
  return m;
}

/// Flat color-indexed tables are only worth it while ids stay near-dense;
/// adversarially sparse ids (e.g. {0, 4'000'000'000}) fall back to
/// sorting so no call allocates O(max_id) memory.
bool ids_near_dense(std::uint32_t max_color, std::size_t n) {
  return static_cast<std::size_t>(max_color) <= 4 * n + 1024;
}

/// DSATUR's vertices are dipaths, each its own class: the kernel over the
/// conflict graph's own rows.
struct Singletons {
  static constexpr bool kTwins = false;
  const ConflictGraph& cg;
  [[nodiscard]] std::size_t paths() const { return cg.size(); }
  [[nodiscard]] std::size_t max_degree() const { return cg.max_degree(); }
  [[nodiscard]] std::size_t degree(std::size_t v) const {
    return cg.degree(v);
  }
  [[nodiscard]] std::size_t class_of(std::size_t v) const { return v; }
  [[nodiscard]] bool last_member(std::size_t) const { return true; }
};

/// DSATUR's vertices are dipaths grouped into twin classes: rows over
/// classes, ranks and degrees over dipaths.
struct TwinClasses {
  static constexpr bool kTwins = true;
  const TwinIndex& twins;
  const std::vector<std::uint32_t>& class_degree;  ///< in dipaths
  std::size_t delta;                               ///< its maximum
  [[nodiscard]] std::size_t paths() const { return twins.paths(); }
  [[nodiscard]] std::size_t max_degree() const { return delta; }
  [[nodiscard]] std::size_t degree(std::size_t v) const {
    return class_degree[twins.class_of[v]];
  }
  [[nodiscard]] std::size_t class_of(std::size_t v) const {
    return twins.class_of[v];
  }
  [[nodiscard]] bool last_member(std::size_t v) const {
    return twins.next[v] == kNoTwin;
  }
};

/// The DSATUR kernel (see dsatur_coloring in coloring.hpp) over `rows`,
/// whose vertices are the classes of `classes`. The uncoloured members of
/// a class share its saturation and degree, so the argmax among them is
/// the lowest id: each class keeps one level entry, at the rank of its
/// lowest uncoloured member, and one saturation and touched bit. When a
/// member takes colour c, the next member inherits the entry one level
/// up, since c now sits in its closed neighbourhood.
template <class Classes>
Coloring dsatur_over(const ConflictGraph& rows, const Classes& classes) {
  const std::size_t n = classes.paths();
  Coloring colors(n, kUncolored);
  if (n == 0) return colors;
  Scratch& s = scratch();

  // Every saturation and every assigned color is at most its vertex's
  // degree, so both lie in 0..max_degree. The level and color tables
  // below are max_degree + 1 sets of n bits each: neither outgrows the
  // adjacency pool's n rows of n bits.
  const std::size_t delta = classes.max_degree();
  const std::size_t words = (n + 63) / 64;
  const std::size_t k_classes = Classes::kTwins ? rows.size() : n;
  const std::size_t cwords = Classes::kTwins ? (k_classes + 63) / 64 : words;

  // Static rank: degree descending, then id ascending, by a counting sort
  // over the degrees (level_size holds its bucket offsets until the levels
  // are set up). Among vertices of equal saturation the lowest rank is
  // then the one the argmax (saturation, then degree, then lowest id)
  // picks.
  s.level_size.assign(delta + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++s.level_size[delta - classes.degree(v) + 1];
  }
  for (std::size_t d = 1; d <= delta + 1; ++d) {
    s.level_size[d] += s.level_size[d - 1];
  }
  s.rank.resize(n);
  s.vertex_at.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t r = s.level_size[delta - classes.degree(v)]++;
    s.rank[v] = r;
    s.vertex_at[r] = static_cast<std::uint32_t>(v);
  }

  // Level t holds the entries (ranks) of the classes of saturation t;
  // every class starts at level 0. touched[c] holds the classes with a
  // neighbor of color c, so a class's saturation is the number of touched
  // sets it is in.
  s.level_size.assign(delta + 1, 0);
  s.level_size[0] = static_cast<std::uint32_t>(k_classes);
  s.levels.assign((delta + 1) * words, 0);
  s.touched.assign((delta + 1) * cwords, 0);
  s.uncolored.assign(cwords, ~std::uint64_t{0});
  if (k_classes % 64 != 0) {
    s.uncolored[cwords - 1] = (std::uint64_t{1} << (k_classes % 64)) - 1;
  }
  if constexpr (Classes::kTwins) {
    // Level 0 holds the ranks of every dipath but the members after the
    // first of each class.
    const TwinIndex& twins = classes.twins;
    std::fill_n(s.levels.begin(), words, ~std::uint64_t{0});
    if (n % 64 != 0) s.levels[words - 1] = (std::uint64_t{1} << (n % 64)) - 1;
    for (const std::uint32_t j : twins.with_twins) {
      for (std::uint32_t v = twins.next[twins.first[j]]; v != kNoTwin;
           v = twins.next[v]) {
        s.levels[s.rank[v] / 64] &= ~(std::uint64_t{1} << (s.rank[v] % 64));
      }
    }
    s.entry.resize(k_classes);
    for (std::size_t q = 0; q < k_classes; ++q) {
      s.entry[q] = s.rank[twins.first[q]];
    }
  } else {
    std::copy(s.uncolored.begin(), s.uncolored.end(), s.levels.begin());
  }
  s.sat_count.assign(k_classes, 0);

  std::size_t top = 0;  // no level above it is non-empty
  for (std::size_t step = 0; step < n; ++step) {
    // The pick: the lowest rank in the highest non-empty level.
    while (s.level_size[top] == 0) {
      WDAG_ASSERT(top > 0, "dsatur: every saturation level is empty");
      --top;
    }
    std::uint64_t* level = s.levels.data() + top * words;
    std::size_t lw = 0;
    while (lw < words && level[lw] == 0) ++lw;
    WDAG_ASSERT(lw < words, "dsatur: saturation level count out of step");
    const std::size_t r =
        lw * 64 + static_cast<std::size_t>(std::countr_zero(level[lw]));
    level[lw] &= level[lw] - 1;
    --s.level_size[top];
    const std::size_t best = s.vertex_at[r];
    const std::size_t k = classes.class_of(best);
    const bool last = classes.last_member(best);
    if (last) s.uncolored[k / 64] &= ~(std::uint64_t{1} << (k % 64));

    // The lowest color no neighbor has: the first c whose touched set
    // lacks k. It is at most k's saturation, so the probes of a run add
    // up to O(n + m).
    std::uint32_t c = 0;
    while (c <= delta &&
           ((s.touched[c * cwords + k / 64] >> (k % 64)) & 1) != 0) {
      ++c;
    }
    WDAG_ASSERT(c <= delta, "dsatur: no free color within the cap");
    colors[best] = c;
    if constexpr (Classes::kTwins) {
      if (!last) {
        // The next member takes k's entry, one level up.
        s.touched[c * cwords + k / 64] |= std::uint64_t{1} << (k % 64);
        const std::uint32_t sat = ++s.sat_count[k];
        const std::uint32_t rn = s.rank[classes.twins.next[best]];
        s.entry[k] = rn;
        s.levels[sat * words + rn / 64] |= std::uint64_t{1} << (rn % 64);
        ++s.level_size[sat];
        top = std::max(top, static_cast<std::size_t>(sat));
      }
    }

    // The classes whose saturation grows are the uncolored neighbors with
    // no neighbor of color c yet, found a word at a time; each moves its
    // entry up one level.
    const auto& row = rows.neighbors(k);
    std::uint64_t* touched = s.touched.data() + c * cwords;
    for (std::size_t w = 0; w < cwords; ++w) {
      std::uint64_t bits = row.word(w) & s.uncolored[w] & ~touched[w];
      touched[w] |= bits;
      while (bits != 0) {
        const std::size_t q =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t sat = s.sat_count[q]++;
        const std::size_t rq = Classes::kTwins ? s.entry[q] : s.rank[q];
        const std::uint64_t rank_bit = std::uint64_t{1} << (rq % 64);
        s.levels[sat * words + rq / 64] &= ~rank_bit;
        s.levels[(sat + 1) * words + rq / 64] |= rank_bit;
        --s.level_size[sat];
        ++s.level_size[sat + 1];
        top = std::max(top, static_cast<std::size_t>(sat) + 1);
      }
    }
  }
  return colors;
}

}  // namespace

std::size_t num_colors(const Coloring& c) {
  if (c.empty()) return 0;
  const std::uint32_t maxc = max_color_of(c);
  Scratch& s = scratch();
  if (ids_near_dense(maxc, c.size())) {
    s.stamps.assign(static_cast<std::size_t>(maxc) + 1, 0);
    std::size_t distinct = 0;
    for (const auto col : c) {
      if (s.stamps[col] == 0) {
        s.stamps[col] = 1;
        ++distinct;
      }
    }
    return distinct;
  }
  s.sorted.assign(c.begin(), c.end());
  std::sort(s.sorted.begin(), s.sorted.end());
  return static_cast<std::size_t>(
      std::unique(s.sorted.begin(), s.sorted.end()) - s.sorted.begin());
}

std::size_t normalize_colors(Coloring& c) {
  if (c.empty()) return 0;
  const std::uint32_t maxc = max_color_of(c);
  if (ids_near_dense(maxc, c.size())) {
    Scratch& s = scratch();
    s.stamps.assign(static_cast<std::size_t>(maxc) + 1, kNoEntry);
    std::uint32_t next = 0;
    for (auto& col : c) {
      if (s.stamps[col] == kNoEntry) s.stamps[col] = next++;
      col = s.stamps[col];
    }
    return next;
  }
  // Sparse ids: the original first-appearance scan (rare, small k).
  std::vector<std::uint32_t> remap;
  for (auto& col : c) {
    const auto it = std::find(remap.begin(), remap.end(), col);
    if (it == remap.end()) {
      remap.push_back(col);
      col = static_cast<std::uint32_t>(remap.size() - 1);
    } else {
      col = static_cast<std::uint32_t>(it - remap.begin());
    }
  }
  return remap.size();
}

bool is_valid_coloring(const ConflictGraph& cg, const Coloring& c) {
  if (c.size() != cg.size()) return false;
  for (std::size_t u = 0; u < cg.size(); ++u) {
    const auto& row = cg.neighbors(u);
    // Only v > u needs checking; start at u's word and mask off <= u.
    std::size_t w = u / 64;
    std::uint64_t bits = row.word(w) & (~std::uint64_t{0} << (u % 64) << 1);
    while (true) {
      while (bits != 0) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (c[u] == c[v]) return false;
      }
      if (++w >= row.num_words()) break;
      bits = row.word(w);
    }
  }
  return true;
}

bool is_valid_assignment(const paths::DipathFamily& family, const Coloring& c) {
  if (c.size() != family.size()) return false;
  Scratch& s = scratch();
  paths::arc_incidence_csr(family, s.offsets, s.ids);
  const std::uint32_t maxc = max_color_of(c);
  if (ids_near_dense(maxc, c.size())) {
    // stamps[col] records the last arc group that saw col; a repeat within
    // one group is a monochromatic shared arc.
    s.stamps.assign(static_cast<std::size_t>(maxc) + 1, kNoEntry);
    for (std::size_t a = 0; a + 1 < s.offsets.size(); ++a) {
      const std::uint32_t tag = static_cast<std::uint32_t>(a);
      for (std::uint32_t i = s.offsets[a]; i < s.offsets[a + 1]; ++i) {
        const std::uint32_t col = c[s.ids[i]];
        if (s.stamps[col] == tag) return false;
        s.stamps[col] = tag;
      }
    }
    return true;
  }
  for (std::size_t a = 0; a + 1 < s.offsets.size(); ++a) {
    s.sorted.clear();
    for (std::uint32_t i = s.offsets[a]; i < s.offsets[a + 1]; ++i) {
      s.sorted.push_back(c[s.ids[i]]);
    }
    std::sort(s.sorted.begin(), s.sorted.end());
    if (std::adjacent_find(s.sorted.begin(), s.sorted.end()) !=
        s.sorted.end()) {
      return false;
    }
  }
  return true;
}

Coloring greedy_coloring(const ConflictGraph& cg,
                         const std::vector<std::size_t>& order) {
  WDAG_REQUIRE(order.size() == cg.size(),
               "greedy_coloring: order size mismatch");
  Coloring colors(cg.size(), kUncolored);
  util::DynamicBitset& mask = scratch().color_mask;
  for (const std::size_t u : order) {
    WDAG_REQUIRE(u < cg.size(), "greedy_coloring: bad vertex in order");
    // At most degree(u) neighbors are colored, so the first-fit color is
    // at most degree(u): colors beyond the cap cannot block it.
    mask.reset_to_zero(cg.degree(u) + 1);
    const auto& row = cg.neighbors(u);
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      std::uint64_t bits = row.word(w);
      while (bits != 0) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t cv = colors[v];
        if (cv != kUncolored && cv < mask.size()) mask.set_unchecked(cv);
      }
    }
    colors[u] = static_cast<std::uint32_t>(mask.find_first_zero());
  }
  return colors;
}

Coloring greedy_coloring(const ConflictGraph& cg) {
  std::vector<std::size_t> order(cg.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return greedy_coloring(cg, order);
}

Coloring dsatur_coloring(const ConflictGraph& cg) {
  return dsatur_over(cg, Singletons{cg});
}

Coloring dsatur_coloring(const TwinIndex& twins, ConflictGraph& rows) {
  const std::size_t k_classes = twins.classes();
  rows.rebuild_from_groups(k_classes, twins.group_offsets, twins.group_ids);
  if (k_classes == twins.paths()) return dsatur_coloring(rows);

  // A dipath's degree counts dipaths: its class's neighbours, weighted by
  // their multiplicities, plus its own twins. The row popcount counts
  // every neighbour class once; each class with twins then adds the rest
  // of its weight to the classes on its arcs, each once (stamped).
  Scratch& s = scratch();
  s.class_degree.resize(k_classes);
  s.stamps.assign(k_classes, kNoTwin);
  for (std::size_t k = 0; k < k_classes; ++k) {
    s.class_degree[k] =
        static_cast<std::uint32_t>(rows.degree(k)) + twins.multiplicity[k] - 1;
  }
  for (const std::uint32_t j : twins.with_twins) {
    const std::uint32_t extra = twins.multiplicity[j] - 1;
    s.stamps[j] = j;  // not its own neighbour
    for (std::uint32_t e = twins.arc_offsets[j]; e < twins.arc_offsets[j + 1];
         ++e) {
      const graph::ArcId a = twins.arcs[e];
      for (std::uint32_t i = twins.group_offsets[a];
           i < twins.group_offsets[a + 1]; ++i) {
        const std::uint32_t q = twins.group_ids[i];
        s.class_degree[q] += s.stamps[q] != j ? extra : 0;
        s.stamps[q] = j;
      }
    }
  }
  std::size_t delta = 0;
  for (const std::uint32_t d : s.class_degree) {
    delta = std::max<std::size_t>(delta, d);
  }
  return dsatur_over(rows, TwinClasses{twins, s.class_degree, delta});
}

}  // namespace wdag::conflict
