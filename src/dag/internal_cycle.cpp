#include "dag/internal_cycle.hpp"

#include <algorithm>

#include "dag/host_index.hpp"
#include "graph/properties.hpp"
#include "util/check.hpp"

namespace wdag::dag {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;

bool has_internal_cycle(const Digraph& g) {
  return index_host(g, /*with_upp=*/false).internal_cycles > 0;
}

std::size_t internal_cycle_count(const Digraph& g) {
  return index_host(g, /*with_upp=*/false).internal_cycles;
}

std::optional<OrientedCycle> find_internal_cycle(const Digraph& g) {
  OrientedCycle cyc;
  if (!find_internal_cycle(g.num_vertices(), g.arcs(), cyc.steps)) {
    return std::nullopt;
  }
  return cyc;
}

bool find_internal_cycle(std::size_t num_vertices,
                         std::span<const graph::Arc> arcs,
                         std::vector<CycleStep>& steps) {
  // Internal vertices: bit 0 marks an entering arc, bit 1 a leaving one.
  const std::size_t n = num_vertices;
  thread_local std::vector<std::uint8_t> role;
  role.assign(n, 0);
  for (const graph::Arc& a : arcs) {
    role[a.head] |= 1;
    role[a.tail] |= 2;
  }
  const auto internal = [&](VertexId v) { return role[v] == 3; };

  // Undirected incidence restricted to internal arcs (both endpoints
  // internal), in flat CSR form. Entries of a vertex are in ascending arc
  // id, which fixes the DFS and so the extracted cycle.
  struct Edge {
    VertexId to;
    ArcId arc;
    bool forward;  // true: walk tail->head
  };
  thread_local std::vector<std::uint32_t> adj_off, cursor;
  thread_local std::vector<Edge> adj;
  adj_off.assign(n + 1, 0);
  std::size_t internal_arcs = 0;
  for (const graph::Arc& a : arcs) {
    if (!internal(a.tail) || !internal(a.head)) continue;
    ++adj_off[a.tail + 1];
    ++adj_off[a.head + 1];
    ++internal_arcs;
  }
  if (internal_arcs == 0) return false;
  for (std::size_t v = 0; v < n; ++v) adj_off[v + 1] += adj_off[v];
  adj.resize(2 * internal_arcs);
  cursor.assign(adj_off.begin(), adj_off.end() - 1);
  for (ArcId id = 0; id < arcs.size(); ++id) {
    const graph::Arc& a = arcs[id];
    if (!internal(a.tail) || !internal(a.head)) continue;
    adj[cursor[a.tail]++] = Edge{a.head, id, true};
    adj[cursor[a.head]++] = Edge{a.tail, id, false};
  }

  // Iterative DFS. For each visited vertex remember the (arc, forward) step
  // used to enter it and its DFS parent; the first non-parent edge to a
  // visited *active* vertex closes a cycle.
  thread_local std::vector<std::uint8_t> state;
  thread_local std::vector<CycleStep> entry;
  thread_local std::vector<VertexId> parent, stack;
  thread_local std::vector<std::uint32_t> edge_it;
  state.assign(n, 0);  // 0 unvisited, 1 active, 2 done
  entry.assign(n, CycleStep{});
  parent.assign(n, graph::kNoVertex);
  edge_it.assign(n, 0);

  for (VertexId root = 0; root < n; ++root) {
    if (!internal(root) || state[root] != 0 ||
        adj_off[root] == adj_off[root + 1]) {
      continue;
    }
    stack.assign(1, root);
    state[root] = 1;
    while (!stack.empty()) {
      const VertexId u = stack.back();
      if (adj_off[u] + edge_it[u] == adj_off[u + 1]) {
        state[u] = 2;
        stack.pop_back();
        continue;
      }
      const Edge e = adj[adj_off[u] + edge_it[u]++];
      if (parent[u] != graph::kNoVertex && e.arc == entry[u].arc) {
        continue;  // do not reuse the entering edge
      }
      if (state[e.to] == 0) {
        state[e.to] = 1;
        parent[e.to] = u;
        entry[e.to] = CycleStep{e.arc, e.forward};
        stack.push_back(e.to);
      } else if (state[e.to] == 1) {
        // Cycle: e.to is an ancestor of u on the DFS stack. Walk u's parent
        // chain back to e.to, then close with edge e, which walks
        // u -> e.to (Edge.forward already describes that direction).
        steps.clear();
        for (VertexId w = u; w != e.to; w = parent[w]) {
          WDAG_ASSERT(w != graph::kNoVertex,
                      "find_internal_cycle: broken parent chain");
          steps.push_back(entry[w]);
        }
        std::reverse(steps.begin(), steps.end());
        steps.push_back(CycleStep{e.arc, e.forward});
        WDAG_ASSERT(is_valid_oriented_cycle(arcs, steps),
                    "find_internal_cycle: extracted cycle is invalid");
        for (const CycleStep& st : steps) {
          const VertexId start = st.forward ? arcs[st.arc].tail
                                            : arcs[st.arc].head;
          WDAG_ASSERT(internal(start),
                      "find_internal_cycle: extracted cycle is not internal");
        }
        return true;
      }
      // state[e.to] == 2: finished component part; no cycle through here.
    }
  }
  return false;
}

bool is_internal_cycle(const Digraph& g, const OrientedCycle& c) {
  if (!is_valid_oriented_cycle(g, c)) return false;
  const auto mask = graph::internal_vertex_mask(g);
  for (const VertexId v : cycle_vertices(g, c)) {
    if (!mask[v]) return false;
  }
  return true;
}

}  // namespace wdag::dag
