#include "paths/load.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace wdag::paths {

namespace {

/// load(G,P,e) for every arc e, counted into a buffer that persists per
/// thread, so the max-load queries allocate nothing once it is warm.
/// Valid until the thread's next call.
const std::vector<std::size_t>& count_loads(const DipathFamily& family) {
  thread_local std::vector<std::size_t> loads;
  loads.assign(family.graph().num_arcs(), 0);
  for (const Dipath& p : family.paths()) {
    for (graph::ArcId a : p.arcs) ++loads[a];
  }
  return loads;
}

}  // namespace

std::vector<std::size_t> arc_loads(const DipathFamily& family) {
  return count_loads(family);
}

std::size_t max_load(const DipathFamily& family) {
  const auto& loads = count_loads(family);
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

graph::ArcId max_load_arc(const DipathFamily& family) {
  const auto& loads = count_loads(family);
  if (loads.empty()) return graph::kNoArc;
  const auto it = std::max_element(loads.begin(), loads.end());
  if (*it == 0) return graph::kNoArc;
  return static_cast<graph::ArcId>(it - loads.begin());
}

RestrictedLoad max_load_on(const DipathFamily& family,
                           const std::vector<graph::ArcId>& arcs) {
  const auto& loads = count_loads(family);
  RestrictedLoad best;
  for (graph::ArcId a : arcs) {
    WDAG_REQUIRE(a < loads.size(), "max_load_on: arc id out of range");
    if (best.arc == graph::kNoArc || loads[a] > best.load) {
      best.load = loads[a];
      best.arc = a;
    }
  }
  return best;
}

}  // namespace wdag::paths
