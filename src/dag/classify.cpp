#include "dag/classify.hpp"

#include <sstream>

#include "dag/host_index.hpp"

namespace wdag::dag {

DagReport classify(const graph::Digraph& g) {
  const HostIndex& h = index_host(g, /*with_upp=*/true);
  DagReport r;
  r.num_vertices = g.num_vertices();
  r.num_arcs = g.num_arcs();
  r.num_sources = h.num_sources;
  r.num_sinks = h.num_sinks;
  r.is_dag = h.topo->acyclic();
  if (r.is_dag) {
    r.internal_cycles = h.internal_cycles;
    r.is_upp = h.is_upp;
  }
  return r;
}

std::string report_to_string(const DagReport& r) {
  std::ostringstream os;
  os << "vertices:        " << r.num_vertices << '\n'
     << "arcs:            " << r.num_arcs << '\n'
     << "sources/sinks:   " << r.num_sources << '/' << r.num_sinks << '\n'
     << "is DAG:          " << (r.is_dag ? "yes" : "no") << '\n';
  if (r.is_dag) {
    os << "UPP:             " << (r.is_upp ? "yes" : "no") << '\n'
       << "internal cycles: " << r.internal_cycles << '\n'
       << "regime:          ";
    if (r.wavelengths_equal_load()) {
      os << "Theorem 1 (w == load for every family)";
    } else if (r.theorem6_applies()) {
      os << "Theorem 6 (UPP, one internal cycle: w <= ceil(4/3 load))";
    } else if (r.is_upp) {
      os << "UPP with " << r.internal_cycles
         << " internal cycles (recursive split-merge bound)";
    } else {
      os << "general DAG with internal cycles (w/load unbounded, Fig. 1)";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace wdag::dag
