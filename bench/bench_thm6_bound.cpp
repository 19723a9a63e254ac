// E6 — Theorem 6: for a UPP-DAG with one internal cycle,
// w(G,P) <= ceil(4/3 * pi(G,P)).
//
// Two series are reported:
//   * the exact chromatic number against the bound (the theorem statement),
//   * the split-merge algorithm's color count against the same bound (the
//     constructive side; see docs/ARCHITECTURE.md on the replicated-copy
//     subtlety).

#include "bench_util.hpp"
#include "conflict/conflict_graph.hpp"
#include "conflict/exact_color.hpp"
#include "core/split_merge.hpp"
#include "gen/family_gen.hpp"
#include "gen/upp_gen.hpp"
#include "paths/load.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag;

void print_table() {
  util::Table t(
      "E6 / Theorem 6: w <= ceil(4/3 pi) on UPP one-cycle instances "
      "(12 instances per row; chi exact when |P| <= 28)",
      {"gadget k", "|P|", "max pi", "chi<=bound", "alg<=bound", "alg==chi",
       "max alg extra"});
  util::Xoshiro256 rng(660066);
  struct Row {
    std::size_t k, paths;
  };
  const Row rows[] = {{2, 12}, {2, 20}, {3, 16}, {3, 24},
                      {4, 20}, {5, 24}, {6, 28}};
  for (const Row& row : rows) {
    constexpr int kTrials = 12;
    std::size_t chi_ok = 0, chi_tried = 0, alg_ok = 0, alg_eq_chi = 0,
                max_pi = 0;
    long long max_extra = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto inst = gen::random_upp_one_cycle_instance(
          rng, gen::UppCycleParams{row.k, 1, 1, 1}, row.paths);
      const auto pi = paths::max_load(inst.family);
      max_pi = std::max(max_pi, pi);
      const auto bound = bench::ceil_four_thirds(pi);
      const auto res = core::color_upp_split_merge(inst.family);
      if (res.wavelengths <= bound) ++alg_ok;
      max_extra = std::max(
          max_extra, static_cast<long long>(res.wavelengths) -
                         static_cast<long long>(pi));
      if (inst.family.size() <= 28) {
        const auto chi =
            conflict::chromatic_number(conflict::ConflictGraph(inst.family));
        if (chi.proven) {
          ++chi_tried;
          if (chi.chromatic_number <= bound) ++chi_ok;
          if (chi.chromatic_number == res.wavelengths) ++alg_eq_chi;
        }
      }
    }
    t.add_row({static_cast<long long>(row.k),
               static_cast<long long>(row.paths),
               static_cast<long long>(max_pi),
               std::to_string(chi_ok) + "/" + std::to_string(chi_tried),
               std::to_string(alg_ok) + "/" + std::to_string(kTrials),
               std::to_string(alg_eq_chi) + "/" + std::to_string(chi_tried),
               max_extra});
  }
  bench::emit(t);
}

void BM_SplitMergeRandom(benchmark::State& state) {
  util::Xoshiro256 rng(66);
  const auto inst = gen::random_upp_one_cycle_instance(
      rng, gen::UppCycleParams{3, 1, 1, 1},
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::color_upp_split_merge(inst.family).wavelengths);
  }
}
BENCHMARK(BM_SplitMergeRandom)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

WDAG_BENCH_MAIN(print_table)
