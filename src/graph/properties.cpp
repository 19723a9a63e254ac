#include "graph/properties.hpp"

#include <unordered_set>

#include "util/check.hpp"
#include "util/union_find.hpp"

namespace wdag::graph {

std::vector<VertexId> sources(const Digraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.in_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> sinks(const Digraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<bool> internal_vertex_mask(const Digraph& g) {
  std::vector<bool> mask(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mask[v] = g.in_degree(v) > 0 && g.out_degree(v) > 0;
  }
  return mask;
}

std::vector<VertexId> internal_vertices(const Digraph& g) {
  std::vector<VertexId> out;
  const auto mask = internal_vertex_mask(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (mask[v]) out.push_back(v);
  }
  return out;
}

bool is_simple(const Digraph& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::unordered_set<VertexId> heads;
    for (ArcId a : g.out_arcs(v)) {
      if (!heads.insert(g.head(a)).second) return false;
    }
  }
  return true;
}

Components underlying_components(const Digraph& g) {
  util::UnionFind uf(g.num_vertices());
  for (const Arc& a : g.arcs()) uf.unite(a.tail, a.head);
  Components comp;
  comp.id.assign(g.num_vertices(), UINT32_MAX);
  std::vector<std::uint32_t> remap(g.num_vertices(), UINT32_MAX);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::size_t root = uf.find(v);
    if (remap[root] == UINT32_MAX) {
      remap[root] = static_cast<std::uint32_t>(comp.count++);
    }
    comp.id[v] = remap[root];
  }
  return comp;
}

bool is_underlying_connected(const Digraph& g) {
  return underlying_components(g).count <= 1;
}

}  // namespace wdag::graph
