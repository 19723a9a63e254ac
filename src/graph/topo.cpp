#include "graph/topo.hpp"

#include "util/check.hpp"

namespace wdag::graph {

namespace {

/// Kahn's algorithm: `order` receives the sources in ascending id, then
/// serves as the queue. `indeg` is consumed; `out_arcs(u)` lists the arcs
/// leaving u. Returns false on a directed cycle.
template <class OutArcs>
bool kahn(std::span<const Arc> arcs, std::vector<std::uint32_t>& indeg,
          const OutArcs& out_arcs, std::vector<VertexId>& order) {
  const std::size_t n = indeg.size();
  order.clear();
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (indeg[v] == 0) order.push_back(v);
  }
  // Elements are never removed from `order`.
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    for (const ArcId a : out_arcs(order[qi])) {
      const VertexId w = arcs[a].head;
      if (--indeg[w] == 0) order.push_back(w);
    }
  }
  return order.size() == n;
}

}  // namespace

std::optional<std::vector<VertexId>> topological_sort(const Digraph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> indeg(n);
  for (VertexId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
  }
  std::vector<VertexId> order;
  const auto out_arcs = [&](VertexId u) { return g.out_arcs(u); };
  if (!kahn(g.arcs(), indeg, out_arcs, order)) return std::nullopt;
  return order;
}

bool is_dag(const Digraph& g) { return topological_sort(g).has_value(); }

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
  // Out-lists in CSR form, filled in arc id order.
  thread_local std::vector<std::uint32_t> indeg, out_begin, cursor;
  thread_local std::vector<ArcId> out_list;
  thread_local std::vector<VertexId> order;
  indeg.assign(num_vertices, 0);
  out_begin.assign(num_vertices + 1, 0);
  for (const Arc& a : arcs) {
    ++indeg[a.head];
    ++out_begin[a.tail + 1];
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    out_begin[v + 1] += out_begin[v];
  }
  out_list.resize(arcs.size());
  cursor.assign(out_begin.begin(), out_begin.end() - 1);
  for (ArcId a = 0; a < arcs.size(); ++a) {
    out_list[cursor[arcs[a].tail]++] = a;
  }
  const auto out_arcs = [&](VertexId u) {
    return std::span<const ArcId>(out_list.data() + out_begin[u],
                                  out_list.data() + out_begin[u + 1]);
  };
  const bool acyclic = kahn(arcs, indeg, out_arcs, order);
  WDAG_REQUIRE(acyclic, "arcs_in_tail_topo_order: input is not a DAG");
  out.clear();
  out.reserve(arcs.size());
  for (const VertexId v : order) {
    for (const ArcId a : out_arcs(v)) out.push_back(a);
  }
  WDAG_ASSERT(out.size() == arcs.size(),
              "arcs_in_tail_topo_order: arc count mismatch");
}

}  // namespace wdag::graph
