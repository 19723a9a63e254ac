#include "dag/upp.hpp"

#include <algorithm>
#include <atomic>

#include "dag/host_index.hpp"
#include "graph/topo.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace wdag::dag {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;

namespace {

/// Path counts from `src` to every vertex, saturated at cap, via DP over
/// the (forward) topological order.
std::vector<std::uint64_t> counts_from(const Digraph& g,
                                       const std::vector<VertexId>& order,
                                       VertexId src, std::uint64_t cap) {
  std::vector<std::uint64_t> cnt(g.num_vertices(), 0);
  const auto& arcs = g.arcs();
  cnt[src] = 1;
  for (const VertexId v : order) {
    if (cnt[v] == 0) continue;
    for (ArcId a : g.out_arcs(v)) {
      const VertexId w = arcs[a].head;
      cnt[w] = std::min(cap, cnt[w] + cnt[v]);
    }
  }
  return cnt;
}

}  // namespace

std::uint64_t count_dipaths(const Digraph& g, VertexId u, VertexId v,
                            std::uint64_t cap) {
  WDAG_REQUIRE(u < g.num_vertices() && v < g.num_vertices(),
               "count_dipaths: vertex out of range");
  WDAG_REQUIRE(cap >= 1, "count_dipaths: cap must be >= 1");
  const auto order = graph::topological_sort(g);
  WDAG_DOMAIN(order.has_value(), "count_dipaths: input is not a DAG");
  return counts_from(g, *order, u, cap)[v];
}

bool is_upp(const Digraph& g) {
  const HostIndex& h = index_host(g, /*with_upp=*/true);
  WDAG_DOMAIN(h.topo->acyclic(), "is_upp: input is not a DAG");
  return h.is_upp;
}

bool is_upp(const Digraph& g, const std::vector<VertexId>& /*order*/) {
  return is_upp(g);
}

bool upp_by_path_counts(const Digraph& g, const std::vector<VertexId>& order) {
  const std::size_t n = g.num_vertices();
  std::atomic<bool> violated{false};
  util::parallel_for_chunks(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t src = lo; src < hi && !violated.load(); ++src) {
          const auto cnt =
              counts_from(g, order, static_cast<VertexId>(src), 2);
          for (std::size_t v = 0; v < n; ++v) {
            if (cnt[v] >= 2) {
              violated.store(true);
              break;
            }
          }
        }
      },
      /*grain=*/8);
  return !violated.load();
}

namespace {

/// Collects up to `limit` distinct dipaths src -> dst by DFS.
void enumerate_paths(const Digraph& g, VertexId src, VertexId dst,
                     std::size_t limit, std::vector<ArcId>& cur,
                     std::vector<std::vector<ArcId>>& out) {
  if (out.size() >= limit) return;
  if (src == dst) {
    out.push_back(cur);
    return;
  }
  for (ArcId a : g.out_arcs(src)) {
    cur.push_back(a);
    enumerate_paths(g, g.head(a), dst, limit, cur, out);
    cur.pop_back();
    if (out.size() >= limit) return;
  }
}

}  // namespace

std::optional<UppViolation> find_upp_violation(const Digraph& g) {
  const auto order = graph::topological_sort(g);
  WDAG_DOMAIN(order.has_value(), "find_upp_violation: input is not a DAG");
  const std::size_t n = g.num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    const auto cnt = counts_from(g, *order, u, 2);
    for (VertexId v = 0; v < n; ++v) {
      if (cnt[v] >= 2) {
        UppViolation viol;
        viol.from = u;
        viol.to = v;
        std::vector<ArcId> cur;
        std::vector<std::vector<ArcId>> paths;
        enumerate_paths(g, u, v, 2, cur, paths);
        WDAG_ASSERT(paths.size() == 2,
                    "find_upp_violation: DP found 2 paths but DFS did not");
        viol.path1 = std::move(paths[0]);
        viol.path2 = std::move(paths[1]);
        return viol;
      }
    }
  }
  return std::nullopt;
}

}  // namespace wdag::dag
