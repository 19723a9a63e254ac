#include "graph/topo.hpp"

#include "util/check.hpp"

namespace wdag::graph {

const TopoIndex& index_topology(std::size_t num_vertices,
                                std::span<const Arc> arcs) {
  thread_local TopoIndex t;
  // Out-list cursors while the CSR fills, then Kahn's remaining in-degrees.
  thread_local std::vector<std::uint32_t> work;
  const std::size_t n = num_vertices;
  t.in_degree.assign(n, 0);
  t.out_begin.assign(n + 1, 0);
  for (const Arc& a : arcs) {
    ++t.in_degree[a.head];
    ++t.out_begin[a.tail + 1];
  }
  for (std::size_t v = 0; v < n; ++v) t.out_begin[v + 1] += t.out_begin[v];
  t.out_list.resize(arcs.size());
  work.assign(t.out_begin.begin(), t.out_begin.end() - 1);
  for (ArcId a = 0; a < arcs.size(); ++a) {
    t.out_list[work[arcs[a].tail]++] = a;
  }

  // Kahn: `order` receives the sources in ascending id, then serves as
  // the queue; nothing is ever removed from it.
  work.assign(t.in_degree.begin(), t.in_degree.end());
  t.order.resize(n);
  std::size_t tail = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (work[v] == 0) t.order[tail++] = v;
  }
  for (std::size_t qi = 0; qi < tail; ++qi) {
    for (const ArcId a : t.out_arcs(t.order[qi])) {
      const VertexId w = arcs[a].head;
      if (--work[w] == 0) t.order[tail++] = w;
    }
  }
  t.order.resize(tail);
  return t;
}

std::optional<std::vector<VertexId>> topological_sort(const Digraph& g) {
  const TopoIndex& t = index_topology(g.num_vertices(), g.arcs());
  if (!t.acyclic()) return std::nullopt;
  return t.order;
}

bool is_dag(const Digraph& g) {
  return index_topology(g.num_vertices(), g.arcs()).acyclic();
}

std::vector<std::uint32_t> topo_positions(const Digraph& g,
                                          const std::vector<VertexId>& order) {
  WDAG_REQUIRE(order.size() == g.num_vertices(),
               "topo_positions: order size mismatch");
  std::vector<std::uint32_t> pos(order.size(), UINT32_MAX);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    WDAG_REQUIRE(order[i] < order.size(), "topo_positions: bad vertex id");
    WDAG_REQUIRE(pos[order[i]] == UINT32_MAX,
                 "topo_positions: order is not a permutation");
    pos[order[i]] = i;
  }
  return pos;
}

std::vector<ArcId> arcs_in_tail_topo_order(const Digraph& g) {
  std::vector<ArcId> arcs;
  arcs_in_tail_topo_order_into(g, arcs);
  return arcs;
}

void arcs_in_tail_topo_order_into(const Digraph& g, std::vector<ArcId>& out) {
  arcs_in_tail_topo_order_into(g.num_vertices(), g.arcs(), out);
}

void arcs_in_tail_topo_order_into(std::size_t num_vertices,
                                  std::span<const Arc> arcs,
                                  std::vector<ArcId>& out) {
  const TopoIndex& t = index_topology(num_vertices, arcs);
  WDAG_REQUIRE(t.acyclic(), "arcs_in_tail_topo_order: input is not a DAG");
  out.clear();
  out.reserve(arcs.size());
  for (const VertexId v : t.order) {
    for (const ArcId a : t.out_arcs(v)) out.push_back(a);
  }
  WDAG_ASSERT(out.size() == arcs.size(),
              "arcs_in_tail_topo_order: arc count mismatch");
}

}  // namespace wdag::graph
