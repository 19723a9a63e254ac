#include "dag/oriented_cycle.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace wdag::dag {

using graph::ArcId;
using graph::Digraph;
using graph::VertexId;

VertexId step_start(const Digraph& g, const CycleStep& s) {
  return s.forward ? g.tail(s.arc) : g.head(s.arc);
}

VertexId step_end(const Digraph& g, const CycleStep& s) {
  return s.forward ? g.head(s.arc) : g.tail(s.arc);
}

bool is_valid_oriented_cycle(const Digraph& g, const OrientedCycle& c) {
  return is_valid_oriented_cycle(g.arcs(), c.steps);
}

bool is_valid_oriented_cycle(std::span<const graph::Arc> arcs,
                             std::span<const CycleStep> steps) {
  if (steps.size() < 2) return false;
  for (const CycleStep& s : steps) {
    if (s.arc >= arcs.size()) return false;
  }
  const auto start = [&](const CycleStep& s) {
    return s.forward ? arcs[s.arc].tail : arcs[s.arc].head;
  };
  const auto end = [&](const CycleStep& s) {
    return s.forward ? arcs[s.arc].head : arcs[s.arc].tail;
  };
  thread_local std::vector<std::uint8_t> seen;
  seen.assign(arcs.size(), 0);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const CycleStep& cur = steps[i];
    if (seen[cur.arc]++ != 0) return false;  // repeated arc
    if (end(cur) != start(steps[(i + 1) % steps.size()])) return false;
  }
  return true;
}

std::vector<VertexId> cycle_vertices(const Digraph& g, const OrientedCycle& c) {
  std::vector<VertexId> out;
  out.reserve(c.steps.size());
  for (const CycleStep& s : c.steps) out.push_back(step_start(g, s));
  return out;
}

CycleDecomposition decompose_cycle(const Digraph& g, const OrientedCycle& c) {
  WDAG_REQUIRE(is_valid_oriented_cycle(g, c),
               "decompose_cycle: not a valid oriented cycle");
  const std::size_t n = c.steps.size();

  // Rotate so that step 0 starts a forward run (its predecessor step is
  // backward). A DAG admits no fully-directed cycle, so a direction change
  // must exist.
  std::size_t start = n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t prev = (i + n - 1) % n;
    if (c.steps[i].forward && !c.steps[prev].forward) {
      start = i;
      break;
    }
  }
  WDAG_REQUIRE(start < n,
               "decompose_cycle: cycle has no direction change; the host "
               "digraph has a directed cycle and is not a DAG");

  std::vector<CycleStep> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = c.steps[(start + i) % n];

  // Group maximal same-direction runs. Runs alternate forward/backward and
  // the walk starts forward, so runs come in (forward, backward) pairs.
  struct Run {
    bool forward;
    std::vector<ArcId> arcs;  // in walk order
    VertexId walk_start, walk_end;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < n; ++i) {
    if (runs.empty() || runs.back().forward != w[i].forward) {
      runs.push_back(Run{w[i].forward, {}, step_start(g, w[i]), step_end(g, w[i])});
    }
    runs.back().arcs.push_back(w[i].arc);
    runs.back().walk_end = step_end(g, w[i]);
  }
  WDAG_ASSERT(runs.size() % 2 == 0 && runs.front().forward,
              "decompose_cycle: runs must alternate starting forward");
  const std::size_t k = runs.size() / 2;

  CycleDecomposition d;
  d.b.resize(k);
  d.c.resize(k);
  d.run_a.resize(k);
  d.run_b.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Run& fwd = runs[2 * i];      // A_{i+1}: b_{i+1} -> c_{i+1}
    const Run& bwd = runs[2 * i + 1];  // walked c_{i+1} -> b_{i+2} backward
    WDAG_ASSERT(fwd.forward && !bwd.forward, "decompose_cycle: bad alternation");
    d.b[i] = fwd.walk_start;
    d.c[i] = fwd.walk_end;
    d.run_a[i] = fwd.arcs;
    // bwd walked end-to-start against the arcs; as a dipath it goes
    // b_{i+2} -> c_{i+1}, i.e. run_b[(i+1) mod k] with arcs reversed.
    std::vector<ArcId> rev(bwd.arcs.rbegin(), bwd.arcs.rend());
    d.run_b[(i + 1) % k] = std::move(rev);
  }

  // Sanity: run_b[i] goes b[i] -> c[(i+k-1) % k].
  for (std::size_t i = 0; i < k; ++i) {
    WDAG_ASSERT(!d.run_b[i].empty(), "decompose_cycle: empty backward run");
    WDAG_ASSERT(g.tail(d.run_b[i].front()) == d.b[i],
                "decompose_cycle: B-run must start at b_i");
    WDAG_ASSERT(g.head(d.run_b[i].back()) == d.c[(i + k - 1) % k],
                "decompose_cycle: B-run must end at c_{i-1}");
  }
  return d;
}

std::string cycle_to_string(const Digraph& g, const OrientedCycle& c) {
  std::ostringstream os;
  for (std::size_t i = 0; i < c.steps.size(); ++i) {
    const CycleStep& s = c.steps[i];
    os << g.vertex_label(step_start(g, s))
       << (s.forward ? " -> " : " <- ");
  }
  if (!c.steps.empty()) {
    os << g.vertex_label(step_start(g, c.steps.front()));
  }
  return os.str();
}

}  // namespace wdag::dag
