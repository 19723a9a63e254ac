#include "gen/family_gen.hpp"

#include <vector>

#include "graph/reachability.hpp"
#include "paths/route.hpp"
#include "util/check.hpp"

namespace wdag::gen {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;
using paths::Dipath;
using paths::DipathFamily;

DipathFamily random_walk_family(util::Xoshiro256& rng, const Digraph& g,
                                std::size_t count, std::size_t min_len,
                                std::size_t max_len) {
  WDAG_REQUIRE(g.num_arcs() > 0, "random_walk_family: graph has no arc");
  WDAG_REQUIRE(min_len >= 1 && min_len <= max_len,
               "random_walk_family: need 1 <= min_len <= max_len");
  DipathFamily fam(g);
  // Each walk grows in one reused buffer; its dipath is then allocated
  // once, at its final length.
  thread_local std::vector<ArcId> walk;
  for (std::size_t i = 0; i < count; ++i) {
    walk.clear();
    const ArcId first = static_cast<ArcId>(rng.index(g.num_arcs()));
    walk.push_back(first);
    VertexId cur = g.head(first);
    // Extend forward. In a DAG the walk cannot revisit a vertex, so any
    // forward extension keeps the dipath simple.
    while (walk.size() < max_len) {
      const auto out = g.out_arcs(cur);
      if (out.empty()) break;
      // Keep extending until min_len, then stop with probability 1/3.
      if (walk.size() >= min_len && rng.chance(1.0 / 3.0)) break;
      const ArcId next = out[rng.index(out.size())];
      walk.push_back(next);
      cur = g.head(next);
    }
    // A forward walk in a DAG is a simple dipath by construction.
    fam.add_unchecked(Dipath(std::vector<ArcId>(walk.begin(), walk.end())));
  }
  return fam;
}

DipathFamily all_to_all_family(const Digraph& g) {
  DipathFamily fam(g);
  const auto closure = graph::transitive_closure(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u == v || !closure[u].test(v)) continue;
      const auto route = paths::unique_route(g, u, v);
      WDAG_ASSERT(route.has_value(), "all_to_all_family: lost route");
      fam.add_unchecked(*route);
    }
  }
  return fam;
}

DipathFamily multicast_family(const Digraph& g, VertexId root) {
  WDAG_REQUIRE(root < g.num_vertices(), "multicast_family: root out of range");
  DipathFamily fam(g);
  const auto reach = graph::descendants(g, root);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == root || !reach.test(v)) continue;
    const auto route = paths::shortest_route(g, root, v);
    WDAG_ASSERT(route.has_value(), "multicast_family: lost route");
    fam.add_unchecked(*route);
  }
  return fam;
}

DipathFamily random_request_family(util::Xoshiro256& rng, const Digraph& g,
                                   std::size_t count) {
  const auto closure = graph::transitive_closure(g);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u != v && closure[u].test(v)) pairs.emplace_back(u, v);
    }
  }
  WDAG_REQUIRE(!pairs.empty(), "random_request_family: no reachable pair");
  DipathFamily fam(g);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [u, v] = pairs[rng.index(pairs.size())];
    const auto route = paths::shortest_route(g, u, v);
    // Routes come straight out of the BFS over g; skip re-validation.
    WDAG_ASSERT(route.has_value(), "random_request_family: lost route");
    fam.add_unchecked(*route);
  }
  return fam;
}

}  // namespace wdag::gen
