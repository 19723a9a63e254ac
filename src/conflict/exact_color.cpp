#include "conflict/exact_color.hpp"

#include <algorithm>
#include <bit>

#include "conflict/clique.hpp"
#include "util/check.hpp"

namespace wdag::conflict {

namespace {

constexpr std::uint32_t kUncolored = UINT32_MAX;
constexpr std::uint32_t kNoTwin = UINT32_MAX;

/// True when adjacent vertices u and v have equal closed neighborhoods:
/// their rows differ exactly in the bits u and v.
bool closed_twins(const ConflictGraph& cg, std::size_t u, std::size_t v) {
  const auto ru = cg.neighbors(u);
  const auto rv = cg.neighbors(v);
  for (std::size_t w = 0; w < ru.num_words(); ++w) {
    std::uint64_t diff = ru.word(w) ^ rv.word(w);
    if (w == u / 64) diff &= ~(std::uint64_t{1} << (u % 64));
    if (w == v / 64) diff &= ~(std::uint64_t{1} << (v % 64));
    if (diff != 0) return false;
  }
  return true;
}

/// twin_prev[v] for every vertex v: the largest u < v with N[u] == N[v],
/// or kNoTwin. Built once and shared by the searches for every k.
std::vector<std::uint32_t> twin_links(const ConflictGraph& cg) {
  std::vector<std::uint32_t> twin_prev(cg.size(), kNoTwin);
  // Twins are adjacent, so v's candidates are its lower neighbors,
  // scanned from the highest down.
  for (std::size_t v = 0; v < cg.size(); ++v) {
    const auto row = cg.neighbors(v);
    for (std::size_t w = v / 64 + 1; w-- > 0 && twin_prev[v] == kNoTwin;) {
      std::uint64_t below = row.word(w);
      if (w == v / 64) below &= (std::uint64_t{1} << (v % 64)) - 1;
      while (below != 0) {
        const auto bit = static_cast<std::size_t>(std::bit_width(below)) - 1;
        const std::size_t u = w * 64 + bit;
        if (cg.degree(u) == cg.degree(v) && closed_twins(cg, u, v)) {
          twin_prev[v] = static_cast<std::uint32_t>(u);
          break;
        }
        below ^= std::uint64_t{1} << bit;
      }
    }
  }
  return twin_prev;
}

/// Backtracking k-coloring (see the header comment): DSATUR order, at most
/// one new color per step, neighbor-color counters, the twin rule.
class KColorSearch {
 public:
  KColorSearch(const ConflictGraph& cg,
               const std::vector<std::uint32_t>& twin_prev, std::size_t k,
               std::size_t budget)
      : cg_(cg),
        twin_prev_(twin_prev),
        n_(cg.size()),
        k_(std::min(k, n_)),  // a vertex never needs a color >= n
        budget_(budget),
        colors_(n_, kUncolored),
        count_(n_ * k_, 0),
        distinct_(n_, 0) {}

  /// True when the uncolored vertices can be colored with at most k
  /// colors in all; colors() holds the coloring then.
  bool solve() {
    if (colored_ == n_) return true;
    if (++nodes_ > budget_) {
      budget_hit_ = true;
      return false;
    }
    const std::size_t v = pick();
    // Twin rule: above the color of the previous member of v's class,
    // which pick() guarantees is colored.
    const std::uint32_t twin = twin_prev_[v];
    const std::uint32_t first = twin == kNoTwin ? 0 : colors_[twin] + 1;
    // At most one brand-new color (max_used_), never one beyond it.
    const std::uint32_t limit = static_cast<std::uint32_t>(
        std::min<std::size_t>(k_, max_used_ + 1));
    const std::uint32_t* counts = count_.data() + v * k_;
    for (std::uint32_t c = first; c < limit; ++c) {
      if (counts[c] != 0) continue;
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

  [[nodiscard]] const Coloring& colors() const { return colors_; }
  [[nodiscard]] Coloring take_colors() { return std::move(colors_); }
  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] bool budget_hit() const { return budget_hit_; }

 private:
  void assign(std::size_t v, std::uint32_t c) {
    colors_[v] = c;
    ++colored_;
    for_each_neighbor(v, [&](std::size_t u) {
      if (count_[u * k_ + c]++ == 0) ++distinct_[u];
    });
  }

  void unassign(std::size_t v, std::uint32_t c) {
    colors_[v] = kUncolored;
    --colored_;
    for_each_neighbor(v, [&](std::size_t u) {
      if (--count_[u * k_ + c] == 0) --distinct_[u];
    });
  }

  /// Calls f(u) for every neighbor u of v, walking v's adjacency row.
  template <typename F>
  void for_each_neighbor(std::size_t v, F&& f) const {
    const auto row = cg_.neighbors(v);
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      for (std::uint64_t bits = row.word(w); bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// The most saturated uncolored vertex (ties: degree, then lowest id),
  /// moved down to the lowest uncolored member of its twin class.
  [[nodiscard]] std::size_t pick() const {
    std::size_t best = n_;
    std::uint32_t best_sat = 0;
    std::size_t best_deg = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      if (colors_[v] != kUncolored) continue;
      const std::uint32_t s = distinct_[v];
      const std::size_t d = cg_.degree(v);
      if (best == n_ || s > best_sat || (s == best_sat && d > best_deg)) {
        best = v;
        best_sat = s;
        best_deg = d;
      }
    }
    while (twin_prev_[best] != kNoTwin &&
           colors_[twin_prev_[best]] == kUncolored) {
      best = twin_prev_[best];
    }
    return best;
  }

  const ConflictGraph& cg_;
  const std::vector<std::uint32_t>& twin_prev_;
  std::size_t n_;
  std::size_t k_;
  std::size_t budget_;
  Coloring colors_;
  std::vector<std::uint32_t> count_;     ///< [v * k + c]: neighbors colored c
  std::vector<std::uint32_t> distinct_;  ///< distinct neighbor colors of v
  std::size_t colored_ = 0;
  std::uint32_t max_used_ = 0;  ///< highest color index assigned so far + 1
  std::size_t nodes_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

std::optional<Coloring> try_color_with(const ConflictGraph& cg, std::size_t k,
                                       std::size_t node_budget) {
  if (cg.size() == 0) return Coloring{};
  if (greedy_clique(cg).size() > k) return std::nullopt;  // clique certifies
  const std::vector<std::uint32_t> twin_prev = twin_links(cg);
  KColorSearch search(cg, twin_prev, k, node_budget);
  if (search.solve()) {
    WDAG_ASSERT(is_valid_coloring(cg, search.colors()),
                "try_color_with: produced an invalid coloring");
    WDAG_ASSERT(num_colors(search.colors()) <= k,
                "try_color_with: used more than k colors");
    return search.take_colors();
  }
  WDAG_ASSERT(!search.budget_hit(),
              "try_color_with: node budget exhausted; result would be unsound");
  return std::nullopt;
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
    const std::vector<std::uint32_t> twin_prev = twin_links(cg);
    for (std::size_t k = lb; k < ub; ++k) {
      KColorSearch search(cg, twin_prev, k, node_budget);
      const bool ok = search.solve();
      res.nodes += search.nodes();
      if (search.budget_hit()) {
        res.proven = false;
        break;
      }
      if (ok) {
        res.coloring = search.take_colors();
        ub = k;
        break;
      }
    }
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
