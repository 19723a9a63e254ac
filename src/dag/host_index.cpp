#include "dag/host_index.hpp"

#include "util/union_find.hpp"

namespace wdag::dag {

namespace {

/// Largest host whose UPP test pushes ancestor cones (n * ceil(n/64)
/// words); above it the per-source path-count DP runs instead.
constexpr std::size_t kConeUppMaxVertices = 4096;

/// UPP by forward cone pushes. Visiting g in topological order, a
/// vertex's ancestor cone (itself included) is complete when it is
/// reached, and it is ORed into the cone of each out-neighbour. Two
/// dipaths u -> w exist iff some vertex receives two cones that meet, so
/// a push into a cone it meets flags the host. One flat word pool holds
/// every cone.
bool upp_by_cones(const graph::TopoIndex& t,
                  std::span<const graph::Arc> arcs) {
  thread_local std::vector<std::uint64_t> pool;
  const std::size_t words = (t.num_vertices() + 63) / 64;
  pool.assign(t.num_vertices() * words, 0);
  for (const graph::VertexId v : t.order) {
    std::uint64_t* cone = pool.data() + v * words;
    cone[v / 64] |= std::uint64_t{1} << (v % 64);
    for (const graph::ArcId a : t.out_arcs(v)) {
      std::uint64_t* into = pool.data() + arcs[a].head * words;
      std::uint64_t meet = 0;
      for (std::size_t w = 0; w < words; ++w) {
        meet |= into[w] & cone[w];
        into[w] |= cone[w];
      }
      if (meet != 0) return false;
    }
  }
  return true;
}

}  // namespace

const HostIndex& index_host(const graph::Digraph& g, bool with_upp) {
  thread_local HostIndex h;
  thread_local util::UnionFind uf;
  const std::size_t n = g.num_vertices();
  const std::span<const graph::Arc> arcs = g.arcs();
  const graph::TopoIndex& t = graph::index_topology(n, arcs);
  h.topo = &t;

  h.internal.resize(n);
  h.num_sources = 0;
  h.num_sinks = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    const bool source = t.in_degree[v] == 0;
    const bool sink = t.out_degree(v) == 0;
    h.num_sources += source ? 1 : 0;
    h.num_sinks += sink ? 1 : 0;
    h.internal[v] = !source && !sink ? 1 : 0;
  }

  // An internal arc whose endpoints are already joined closes a cycle:
  // counting them gives m' - (n' - c').
  uf.reset(n);
  h.internal_cycles = 0;
  for (const graph::Arc& a : arcs) {
    if (h.internal[a.tail] != 0 && h.internal[a.head] != 0 &&
        !uf.unite(a.tail, a.head)) {
      ++h.internal_cycles;
    }
  }

  h.is_upp = false;
  if (with_upp && t.acyclic()) {
    h.is_upp = n <= kConeUppMaxVertices ? upp_by_cones(t, arcs)
                                        : upp_by_path_counts(g, t.order);
  }
  return h;
}

}  // namespace wdag::dag
