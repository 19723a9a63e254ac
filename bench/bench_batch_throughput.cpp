// Batch-solve throughput harness: the matrix the perf regression gate
// watches.
//
// The table pass measures {uniform, skewed-family, exact-heavy} x
// threads {1, 4, ncpu} on the one batch schedule (best of kReps runs per
// cell) and emits one consolidated BENCH_batch.json-compatible line
// (`{"bench":"batch_throughput","rows":[...]}`). Every row keeps
// "schedule":"fixed", the key the committed baseline was recorded under.
// CI extracts that record and scripts/compare_bench.py fails the push
// when any cell regresses >15% against the committed baseline
// (bench/baselines/BENCH_batch.json).
//
// The three workload regimes deliberately span the dispatch spectrum
// (the IPC-benchmark lesson in PAPERS.md — perf claims need diverse,
// continuously re-run workloads):
//   uniform       homogeneous random-upp, every instance similarly cheap
//                 (its ~20% exact-certified gadgets run in ~0.1ms);
//   skewed-family >=20% exact-dispatched instances: tiny trees plus
//                 scattered odd-cycle gadgets, ending in a contiguous run
//                 of Wagner/havet h=3 instances (the shape of a
//                 sorted-by-size sweep). It was built around ~12ms
//                 stragglers; since the exact search learned to decide,
//                 a havet h=3 solve takes ~0.08ms, so the cell holds no
//                 straggler now;
//   exact-heavy   havet h=2 instances only: every solve is an exact
//                 branch-and-bound certification.
//
// WDAG_BENCH_HANDICAP_NS (debug knob): busy-wait that many nanoseconds
// per generated instance. Used to verify the CI gate actually fires on
// an injected slowdown; never set in real runs.

#include "bench_util.hpp"
#include "api/engine.hpp"
#include "core/batch.hpp"
#include "gen/instance.hpp"
#include "gen/workloads.hpp"
#include "util/rng.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace wdag;
using core::BatchOptions;
using core::BatchReport;
using gen::Instance;
using util::Xoshiro256;

constexpr std::uint64_t kSeed = 20260730;
constexpr int kReps = 3;  ///< interleaved repetitions per matrix cell

std::uint64_t handicap_ns() {
  static const std::uint64_t value = [] {
    const char* env = std::getenv("WDAG_BENCH_HANDICAP_NS");
    return env != nullptr ? std::strtoull(env, nullptr, 10)
                          : std::uint64_t{0};
  }();
  return value;
}

/// Busy-waits the injected per-instance handicap (gate verification only).
void burn_handicap() {
  const std::uint64_t ns = handicap_ns();
  if (ns == 0) return;
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
    benchmark::ClobberMemory();
  }
}

constexpr std::size_t kSkewedCount = 160;
constexpr std::size_t kSkewedHeavyTail = 16;  ///< trailing havet h=3 run

gen::WorkloadParams cheap_tree_params() {
  gen::WorkloadParams params;
  params.size = 32;
  params.paths = 20;
  return params;
}

/// The shared shape of the uniform workload — one definition for the
/// matrix, the google-benchmark batches, and the prebuilt-instance bench,
/// so they keep measuring the same instances.
gen::WorkloadParams uniform_params() {
  gen::WorkloadParams params = cheap_tree_params();
  params.rows = 4;
  params.cols = 5;
  return params;
}

Instance uniform_instance(Xoshiro256& rng, std::size_t) {
  return gen::workload_instance("random-upp", uniform_params(), rng);
}

Instance skewed_family_instance(Xoshiro256& rng, std::size_t index) {
  gen::WorkloadParams params;
  if (index >= kSkewedCount - kSkewedHeavyTail) {
    // Exact-certified Wagner instances (Theorem 7 family), ~0.08ms each.
    params.h = 3;
    return gen::workload_instance("havet", params, rng);
  }
  if (index % 8 == 0) {
    // Cheap but exact-dispatched odd-cycle gadget (C_41 conflict graph):
    // together with the heavy tail, >20% of the batch lands in the exact
    // strategy.
    params.k = 20;
    return gen::workload_instance("odd-cycle", params, rng);
  }
  return gen::workload_instance("tree", cheap_tree_params(), rng);
}

Instance exact_heavy_instance(Xoshiro256& rng, std::size_t) {
  gen::WorkloadParams params;
  params.h = 2;  // ~0.2ms exact certification per instance
  return gen::workload_instance("havet", params, rng);
}

struct Workload {
  std::string name;
  std::size_t count;
  core::InstanceGenerator generate;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"uniform", 512, uniform_instance},
      {"skewed-family", kSkewedCount, skewed_family_instance},
      {"exact-heavy", 192, exact_heavy_instance},
  };
  return w;
}

BatchReport run_cell(api::Engine& engine, const Workload& workload) {
  api::BatchRequest request;
  request.generate = [&workload](Xoshiro256& rng, std::size_t i) {
    Instance inst = workload.generate(rng, i);
    burn_handicap();
    return inst;
  };
  request.count = workload.count;
  request.options.seed = kSeed;
  request.options.keep_entries = false;  // throughput mode
  return engine.run_batch(request);
}

void print_table() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_configs = {1, 4, hw};
  // Dedup while preserving order (hw is often 4; 1-core boxes drop to
  // {1, 4}).
  std::vector<std::size_t> threads_list;
  for (const std::size_t t : thread_configs) {
    bool seen = false;
    for (const std::size_t u : threads_list) seen = seen || u == t;
    if (!seen) threads_list.push_back(t);
  }

  util::Table t("batch matrix (best of " + std::to_string(kReps) +
                    " reps per cell)",
                {"workload", "schedule", "threads", "count", "chunk",
                 "inst_per_s", "p99_ms", "exact_share"});
  for (const std::size_t threads : threads_list) {
    api::EngineOptions engine_options;
    engine_options.threads = threads;
    api::Engine engine(engine_options);
    for (const Workload& workload : workloads()) {
      BatchReport best;
      for (int rep = 0; rep < kReps; ++rep) {
        BatchReport report = run_cell(engine, workload);
        if (report.instances_per_second() > best.instances_per_second()) {
          best = std::move(report);
        }
      }
      const double solved = static_cast<double>(best.instance_count);
      t.add_row({workload.name, std::string("fixed"),
                 static_cast<long long>(best.threads_used),
                 static_cast<long long>(best.instance_count),
                 static_cast<long long>(best.chunk_size),
                 best.instances_per_second(), best.latency.p99,
                 solved == 0 ? 0.0
                             : static_cast<double>(best.count("exact")) /
                                   solved});
    }
  }
  bench::emit(t);
  bench::emit_json("batch_throughput", t);
}

BatchReport run_batch(const std::string& workload, std::size_t count,
                      std::size_t threads) {
  BatchOptions options;
  options.threads = threads;
  options.seed = kSeed;
  const gen::WorkloadParams params = uniform_params();
  return core::solve_generated_batch(
      count,
      [&workload, &params](Xoshiro256& rng, std::size_t) {
        return gen::workload_instance(workload, params, rng);
      },
      core::SolveOptions{}, options);
}

void BM_BatchSolve(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::size_t instances = 0;
  for (auto _ : state) {
    const BatchReport report = run_batch("random-upp", 128, threads);
    benchmark::DoNotOptimize(report.total_wavelengths);
    instances += report.instance_count;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_BatchSolve)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_BatchSolvePrebuilt(benchmark::State& state) {
  // Isolates solver throughput from generation: instances built once.
  Xoshiro256 rng(99);
  const gen::WorkloadParams params = uniform_params();
  std::vector<Instance> instances;
  std::vector<paths::DipathFamily> families;
  for (std::size_t i = 0; i < 128; ++i) {
    instances.push_back(gen::workload_instance("grid", params, rng));
    families.push_back(instances.back().family);
  }
  BatchOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::size_t solved = 0;
  for (auto _ : state) {
    const BatchReport report =
        core::solve_batch(families, core::SolveOptions{}, options);
    benchmark::DoNotOptimize(report.total_wavelengths);
    solved += report.entries.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(solved));
}
BENCHMARK(BM_BatchSolvePrebuilt)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

WDAG_BENCH_MAIN(print_table)
