#include "conflict/exact_color.hpp"

#include <algorithm>
#include <bit>

#include "conflict/clique.hpp"
#include "util/check.hpp"

namespace wdag::conflict {

namespace {

constexpr std::uint32_t kNoTwin = UINT32_MAX;

/// The search's tables, kept per thread and reused across calls. Every
/// set is ceil(n/64) words; a table of several sets holds set i at word
/// i * ceil(n/64).
struct Scratch {
  std::vector<std::uint32_t> twin_prev;  ///< per vertex
  std::vector<std::uint32_t> colors;     ///< per vertex, valid once colored
  std::vector<std::uint64_t> degree;     ///< plane q: bit q of the degree
  std::vector<std::uint64_t> saturation; ///< plane p: bit p of the saturation
  std::vector<std::uint64_t> adj;        ///< set c: has a neighbor colored c
  std::vector<std::uint64_t> moved;      ///< per depth: saturations raised
  std::vector<std::uint64_t> uncolored;
  std::vector<std::uint64_t> cand;       ///< the pick's narrowing set
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Backtracking k-coloring on bit planes (see the header comment). With
/// kOneWord every set is one word (n <= 64), so each word loop runs once
/// and the pick's narrowing set stays in a register.
template <bool kOneWord>
class PlaneSearch {
 public:
  /// Builds what every k shares: the twin links and the degree planes.
  PlaneSearch(const ConflictGraph& cg, std::size_t budget)
      : s_(scratch()),
        n_(cg.size()),
        words_(kOneWord ? 1 : (n_ + 63) / 64),
        planes_(static_cast<std::size_t>(std::bit_width(cg.max_degree()))),
        rows_(cg.neighbors(0).data()),
        budget_(budget) {
    WDAG_ASSERT(!kOneWord || n_ <= 64, "PlaneSearch: one word holds 64");
    s_.twin_prev.resize(n_);
    s_.colors.resize(n_);
    s_.moved.resize(n_ * words_);
    s_.cand.resize(words_);
    s_.degree.assign(planes_ * words_, 0);
    for (std::size_t v = 0; v < n_; ++v) {
      const std::size_t d = cg.degree(v);
      for (std::size_t q = 0; q < planes_; ++q) {
        s_.degree[q * words_ + v / 64] |=
            static_cast<std::uint64_t>((d >> q) & 1) << (v % 64);
      }
      s_.twin_prev[v] = twin_below(cg, v);
    }
  }

  /// True when cg can be colored with at most k colors; colors() holds
  /// the coloring then. Counts nodes() and sets budget_hit() per k.
  bool color(std::size_t k) {
    k_ = std::min(k, n_);  // a vertex never needs a color >= n
    s_.adj.assign(k_ * words_, 0);
    s_.saturation.assign(planes_ * words_, 0);
    s_.uncolored.assign(words_, ~std::uint64_t{0});
    if (n_ % 64 != 0) {
      s_.uncolored[words_ - 1] = (std::uint64_t{1} << (n_ % 64)) - 1;
    }
    colored_ = 0;
    max_used_ = 0;
    nodes_ = 0;
    budget_hit_ = false;
    return solve();
  }

  [[nodiscard]] Coloring colors() const {
    return Coloring(s_.colors.begin(), s_.colors.begin() + n_);
  }
  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] bool budget_hit() const { return budget_hit_; }

 private:
  [[nodiscard]] std::size_t words() const { return kOneWord ? 1 : words_; }
  [[nodiscard]] const std::uint64_t* row(std::size_t v) const {
    return rows_ + v * words();
  }

  /// The largest u < v with N[u] == N[v], or kNoTwin. Twins are adjacent,
  /// so the candidates are v's lower neighbors, from the highest down.
  [[nodiscard]] std::uint32_t twin_below(const ConflictGraph& cg,
                                         std::size_t v) const {
    for (std::size_t w = v / 64 + 1; w-- > 0;) {
      std::uint64_t below = row(v)[w];
      if (w == v / 64) below &= (std::uint64_t{1} << (v % 64)) - 1;
      while (below != 0) {
        const auto bit = static_cast<std::size_t>(std::bit_width(below)) - 1;
        below ^= std::uint64_t{1} << bit;
        const std::size_t u = w * 64 + bit;
        if (cg.degree(u) == cg.degree(v) && closed_twins(u, v)) {
          return static_cast<std::uint32_t>(u);
        }
      }
    }
    return kNoTwin;
  }

  /// True when adjacent u and v have equal closed neighborhoods: their
  /// rows differ exactly in the bits u and v.
  [[nodiscard]] bool closed_twins(std::size_t u, std::size_t v) const {
    const std::uint64_t* ru = row(u);
    const std::uint64_t* rv = row(v);
    for (std::size_t w = 0; w < words(); ++w) {
      std::uint64_t diff = ru[w] ^ rv[w];
      if (w == u / 64) diff &= ~(std::uint64_t{1} << (u % 64));
      if (w == v / 64) diff &= ~(std::uint64_t{1} << (v % 64));
      if (diff != 0) return false;
    }
    return true;
  }

  bool solve() {
    if (colored_ == n_) return true;
    if (++nodes_ > budget_) {
      budget_hit_ = true;
      return false;
    }
    const std::size_t v = pick();
    // Twin rule: above the color of the previous member of v's class,
    // which pick() guarantees is colored.
    const std::uint32_t twin = s_.twin_prev[v];
    const std::uint32_t first = twin == kNoTwin ? 0 : s_.colors[twin] + 1;
    // At most one brand-new color (max_used_), never one beyond it.
    const std::uint32_t limit = static_cast<std::uint32_t>(
        std::min<std::size_t>(k_, max_used_ + 1));
    const std::uint64_t* adj_v = s_.adj.data() + v / 64;
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    for (std::uint32_t c = first; c < limit; ++c) {
      if ((adj_v[c * words()] & bit) != 0) continue;
      const std::uint32_t prev_max = max_used_;
      max_used_ = std::max(max_used_, c + 1);
      assign(v, c);
      if (solve()) return true;
      unassign(v, c);
      max_used_ = prev_max;
      if (budget_hit_) return false;
    }
    return false;
  }

  /// Colors v with c. The neighbors that had no neighbor colored c gain
  /// c: they join adj[c], their saturation counters add one, and the
  /// set is saved at this depth for unassign.
  void assign(std::size_t v, std::uint32_t c) {
    s_.colors[v] = c;
    s_.uncolored[v / 64] &= ~(std::uint64_t{1} << (v % 64));
    const std::uint64_t* r = row(v);
    std::uint64_t* adj_c = s_.adj.data() + c * words();
    std::uint64_t* moved = s_.moved.data() + colored_ * words();
    std::uint64_t* sat = s_.saturation.data();
    // Locals, not members: plane writes are uint64_t stores, which may
    // alias a size_t member and would force it to be reloaded.
    const std::size_t planes = planes_;
    for (std::size_t w = 0; w < words(); ++w) {
      const std::uint64_t gain = r[w] & ~adj_c[w];
      moved[w] = gain;
      adj_c[w] |= gain;
      std::uint64_t carry = gain;
      for (std::size_t p = 0; carry != 0 && p < planes; ++p) {
        std::uint64_t& plane = sat[p * words() + w];
        const std::uint64_t next = plane & carry;
        plane ^= carry;
        carry = next;
      }
      WDAG_ASSERT(carry == 0, "PlaneSearch: a saturation exceeds its degree");
    }
    ++colored_;
  }

  /// Undoes assign(v, c) from the set saved at its depth.
  void unassign(std::size_t v, std::uint32_t c) {
    --colored_;
    const std::uint64_t* moved = s_.moved.data() + colored_ * words();
    std::uint64_t* adj_c = s_.adj.data() + c * words();
    std::uint64_t* sat = s_.saturation.data();
    const std::size_t planes = planes_;
    for (std::size_t w = 0; w < words(); ++w) {
      adj_c[w] &= ~moved[w];
      std::uint64_t borrow = moved[w];
      for (std::size_t p = 0; borrow != 0 && p < planes; ++p) {
        std::uint64_t& plane = sat[p * words() + w];
        const std::uint64_t next = ~plane & borrow;
        plane ^= borrow;
        borrow = next;
      }
      WDAG_ASSERT(borrow == 0, "PlaneSearch: a saturation fell below zero");
    }
    s_.uncolored[v / 64] |= std::uint64_t{1} << (v % 64);
  }

  /// The most saturated uncolored vertex (ties: degree, then lowest id).
  /// The candidates narrow plane by plane, saturation then degree, highest
  /// bit first: a plane that some candidate has keeps only those that
  /// have it, which leaves the lexicographic maximum of the two.
  [[nodiscard]] std::size_t pick() const {
    std::uint64_t one_word[1];
    std::uint64_t* cand = kOneWord ? one_word : s_.cand.data();
    for (std::size_t w = 0; w < words(); ++w) cand[w] = s_.uncolored[w];
    const auto narrow = [&](const std::uint64_t* plane) {
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < words(); ++w) any |= cand[w] & plane[w];
      if (any == 0) return;
      for (std::size_t w = 0; w < words(); ++w) cand[w] &= plane[w];
    };
    for (std::size_t p = planes_; p-- > 0;) {
      narrow(s_.saturation.data() + p * words());
    }
    for (std::size_t q = planes_; q-- > 0;) {
      narrow(s_.degree.data() + q * words());
    }
    std::size_t w = 0;
    while (cand[w] == 0) ++w;
    const std::size_t best =
        w * 64 + static_cast<std::size_t>(std::countr_zero(cand[w]));
    // Two uncolored twins have the same colored neighbors, so they tie on
    // saturation and degree, and the lowest id is the lowest uncolored
    // member of its class: each class is colored in index order, which
    // keeps the twin rule sound.
    const std::uint32_t twin = s_.twin_prev[best];
    WDAG_ASSERT(twin == kNoTwin || !is_uncolored(twin),
                "PlaneSearch: picked a twin above an uncolored one");
    return best;
  }

  [[nodiscard]] bool is_uncolored(std::size_t v) const {
    return ((s_.uncolored[v / 64] >> (v % 64)) & 1) != 0;
  }

  Scratch& s_;
  std::size_t n_;
  std::size_t words_;   ///< words per set, ceil(n/64)
  std::size_t planes_;  ///< bit_width(max degree): bounds every saturation
  const std::uint64_t* rows_;  ///< the conflict graph's row pool
  std::size_t budget_;
  std::size_t k_ = 0;
  std::size_t colored_ = 0;     ///< also the depth of the next assign
  std::uint32_t max_used_ = 0;  ///< highest color index assigned so far + 1
  std::size_t nodes_ = 0;
  bool budget_hit_ = false;
};

/// Calls f with the search instantiated for cg's row width: one word up
/// to 64 vertices, any width above.
template <typename F>
auto with_search(const ConflictGraph& cg, std::size_t budget, F&& f) {
  if (cg.size() <= 64) {
    PlaneSearch<true> search(cg, budget);
    return f(search);
  }
  PlaneSearch<false> search(cg, budget);
  return f(search);
}

}  // namespace

std::optional<Coloring> try_color_with(const ConflictGraph& cg, std::size_t k,
                                       std::size_t node_budget) {
  if (cg.size() == 0) return Coloring{};
  // A clique of more than k vertices certifies "no". The greedy clique can
  // miss the maximum one, and a refutation by search then costs far more
  // than max_clique, so the exact clique number decides before any search.
  if (greedy_clique(cg).size() > k || max_clique(cg).size() > k) {
    return std::nullopt;
  }
  return with_search(
      cg, node_budget, [&](auto& search) -> std::optional<Coloring> {
        if (search.color(k)) {
          Coloring colors = search.colors();
          WDAG_ASSERT(is_valid_coloring(cg, colors),
                      "try_color_with: produced an invalid coloring");
          WDAG_ASSERT(num_colors(colors) <= k,
                      "try_color_with: used more than k colors");
          return colors;
        }
        WDAG_ASSERT(
            !search.budget_hit(),
            "try_color_with: node budget exhausted; result would be unsound");
        return std::nullopt;
      });
}

ChromaticResult chromatic_number(const ConflictGraph& cg,
                                 ChromaticBounds bounds,
                                 std::size_t node_budget) {
  ChromaticResult res;
  if (cg.size() == 0) return res;
  WDAG_REQUIRE(is_valid_coloring(cg, bounds.upper),
               "chromatic_number: the upper-bound coloring is not valid");
  std::size_t ub = num_colors(bounds.upper);
  std::size_t lb = std::max<std::size_t>(bounds.lower, 1);
  WDAG_REQUIRE(lb <= ub,
               "chromatic_number: the lower bound exceeds the upper bound");
  if (!bounds.lower_is_clique && lb < ub) {
    lb = std::max(lb, max_clique(cg).size());
  }
  res.coloring = std::move(bounds.upper);

  // The first k in [lb, ub) that admits a coloring is chi; none means ub.
  if (lb < ub) {
    with_search(cg, node_budget, [&](auto& search) {
      for (std::size_t k = lb; k < ub; ++k) {
        const bool ok = search.color(k);
        res.nodes += search.nodes();
        if (search.budget_hit()) {
          res.proven = false;
          return;
        }
        if (ok) {
          res.coloring = search.colors();
          ub = k;
          return;
        }
      }
    });
  }
  res.chromatic_number = ub;
  WDAG_ASSERT(is_valid_coloring(cg, res.coloring),
              "chromatic_number: invalid optimal coloring");
  return res;
}

ChromaticResult chromatic_number(const ConflictGraph& cg,
                                 std::size_t node_budget) {
  return chromatic_number(cg, ChromaticBounds{0, false, dsatur_coloring(cg)},
                          node_budget);
}

}  // namespace wdag::conflict
