// perfbench: the wdag benchmark binary. perfbench/run.py builds it and
// runs it as
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --wdag PATH --work-dir DIR
//
// It prints notes and a metric table, then, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones. A failed answer check makes it exit 1 after printing; a usage
// or set-up error exits 2 without a result.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::MetricDef;
using perfbench::Outcome;

int usage() {
  std::cerr << "usage: perfbench --workload upp-mix|certify-exact|"
               "dense-dsatur|serve-open --seed N --seconds S --trace 0|1 "
               "--wdag PATH --work-dir DIR\n"
               "       perfbench --list-metrics\n";
  return 2;
}

/// Shortest round-trip text of a double (every digit as measured).
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print(const Args& args, const Outcome& out) {
  const auto& defs = args.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::cout << "# perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << "\n";
  for (const std::string& note : out.notes) std::cout << "# " << note << "\n";
  const double failed_share =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::string json = "{\"correct\": " +
                     std::string(out.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = out.metrics.find(d.name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    std::printf("%-34s %16.6g %s\n", d.name, v, d.unit);
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  std::printf("%-34s %16.6g %s\n", "failed_share", failed_share, "share");
  // Figures of the other mode that this run measured anyway: shown, but
  // not part of the result.
  for (const auto& [name, v] : out.metrics) {
    bool listed = false;
    for (const MetricDef& d : defs) listed = listed || name == d.name;
    if (!listed) std::printf("(%s %.6g)\n", name.c_str(), v);
  }
  std::size_t shown = 0;
  for (const std::string& p : out.problems) {
    if (++shown > 10) {
      std::cout << "! ... " << out.problems.size() - 10 << " more\n";
      break;
    }
    std::cout << "! " << p << "\n";
  }
  std::cout << json << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& d : perfbench::kEndToEnd) {
        std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
      }
      for (const MetricDef& d : perfbench::kPerLayer) {
        std::cout << "per_layer " << d.name << " " << d.unit << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--wdag") {
        args.wdag_cli = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const bool serve = args.workload == "serve-open";
  if (!have_workload || !have_trace || args.seconds <= 0 ||
      args.work_dir.empty() ||
      !(serve || perfbench::is_batch_workload(args.workload)) ||
      (serve && args.wdag_cli.empty())) {
    return usage();
  }

  try {
    perfbench::warm_cpus(1.0);
    const Outcome out = serve ? perfbench::run_serve_workload(args)
                              : perfbench::run_batch_workload(args);
    print(args, out);
    return out.failed == 0 && out.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
