#pragma once
// Shared plumbing for the benchmark harness.
//
// Every bench binary does two things:
//   1. regenerates its paper table/figure as a results table on stdout
//      (the "shape" evidence; see docs/ARCHITECTURE.md), then
//   2. runs google-benchmark timings for the algorithms involved.
//
// WDAG_BENCH_MAIN(print_fn) emits the table(s) first so that plain
// `./bench_x` output starts with the reproduction evidence.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "util/table.hpp"

namespace wdag::bench {

/// ceil(4/3 * pi) — Theorem 6's bound, used by several benches.
inline std::size_t ceil_four_thirds(std::size_t pi) {
  return (4 * pi + 2) / 3;
}

/// ceil(8h/3) — Theorem 7's tight value.
inline std::size_t ceil_eight_thirds(std::size_t h) {
  return (8 * h + 2) / 3;
}

inline void emit(const util::Table& table) {
  std::fputs(table.to_text().c_str(), stdout);
  std::fputs("\n", stdout);
}

/// Emits a one-line BENCH_<name>.json-compatible record: the table's rows
/// as a JSON array under a bench key, for cross-PR perf tracking.
inline void emit_json(const std::string& name, const util::Table& table) {
  std::printf("{\"bench\":\"%s\",\"rows\":%s}\n", name.c_str(),
              table.to_json_rows().c_str());
}

}  // namespace wdag::bench

#define WDAG_BENCH_MAIN(print_fn)                                   \
  int main(int argc, char** argv) {                                 \
    print_fn();                                                     \
    ::benchmark::Initialize(&argc, argv);                           \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {     \
      return 1;                                                     \
    }                                                               \
    ::benchmark::RunSpecifiedBenchmarks();                          \
    ::benchmark::Shutdown();                                        \
    return 0;                                                       \
  }
