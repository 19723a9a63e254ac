// Randomized cross-check tier for the parallel batch solver.
//
// Over hundreds of seeded random instances spanning every generator regime
// (trees, repaired DAGs, UPP one-cycle skeletons, general DAGs) we assert
// the batch engine's three invariants:
//   1. every returned coloring is a valid wavelength assignment,
//   2. wavelengths >= load (pi is a lower bound, paper §1),
//   3. DSATUR agrees with the exact branch-and-bound whenever the conflict
//      graph is small enough (<= 20 vertices) to certify cheaply.
// Plus the determinism contract: identical seeds give identical reports
// regardless of thread count.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "conflict/exact_color.hpp"
#include "api/engine.hpp"
#include "api/request.hpp"
#include "api/sink.hpp"
#include "core/batch.hpp"
#include "core/cost_model.hpp"
#include "gen/family_gen.hpp"
#include "gen/instance.hpp"
#include "gen/random_dag.hpp"
#include "gen/upp_gen.hpp"
#include "helpers.hpp"
#include "paths/load.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag;
using core::BatchOptions;
using core::BatchReport;
using core::StrategyId;
using core::SolveOptions;
using gen::Instance;
using util::Xoshiro256;

/// The shared mixed-regime stream (tests/helpers.hpp) as a generator.
Instance mixed_instance(Xoshiro256& rng, std::size_t index) {
  return test::mixed_regime_instance(rng, index);
}

/// Builds the workload up front so validity can be cross-checked against
/// the original families after the batch returns.
std::vector<Instance> build_workload(std::size_t count, std::uint64_t seed) {
  // One sequential RNG stream — deliberately NOT the engine's per-chunk
  // derivation; these instances exist to cross-check solve_batch against
  // the originals, not to reproduce solve_generated_batch's stream.
  std::vector<Instance> instances;
  instances.reserve(count);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    instances.push_back(mixed_instance(rng, i));
  }
  return instances;
}

std::vector<paths::DipathFamily> families_of(
    const std::vector<Instance>& instances) {
  std::vector<paths::DipathFamily> families;
  families.reserve(instances.size());
  for (const Instance& inst : instances) families.push_back(inst.family);
  return families;
}

TEST(BatchCrossCheckTest, RandomizedInstancesSatisfySolverInvariants) {
  constexpr std::size_t kInstances = 240;  // >= 200 per the test-tier contract
  const std::vector<Instance> workload = build_workload(kInstances, 20260730);
  const std::vector<paths::DipathFamily> families = families_of(workload);

  BatchOptions batch_options;
  batch_options.keep_colorings = true;
  const BatchReport report =
      core::solve_batch(families, SolveOptions{}, batch_options);

  ASSERT_EQ(report.entries.size(), kInstances);
  EXPECT_EQ(report.failure_count, 0u);

  std::size_t exact_checked = 0;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const auto& entry = report.entries[i];
    const auto& family = families[i];
    ASSERT_FALSE(entry.failed) << "instance " << i << ": " << entry.error;

    // (1) the coloring is a valid wavelength assignment.
    EXPECT_TRUE(conflict::is_valid_assignment(family, entry.coloring))
        << "instance " << i;

    // (2) pi(G,P) is a lower bound on the wavelengths used.
    EXPECT_EQ(entry.load, paths::max_load(family)) << "instance " << i;
    EXPECT_GE(entry.wavelengths, entry.load) << "instance " << i;

    // (3) cross-check DSATUR against the exact solver on small conflict
    // graphs; the solver's own result can never beat the exact optimum.
    const conflict::ConflictGraph cg(family);
    if (cg.size() > 0 && cg.size() <= 20) {
      ++exact_checked;
      const auto exact = conflict::chromatic_number(cg);
      ASSERT_TRUE(exact.proven) << "instance " << i;
      EXPECT_GE(entry.wavelengths, exact.chromatic_number) << "instance " << i;
      const auto dsatur = conflict::dsatur_coloring(cg);
      EXPECT_TRUE(conflict::is_valid_coloring(cg, dsatur)) << "instance " << i;
      EXPECT_EQ(conflict::num_colors(dsatur), exact.chromatic_number)
          << "instance " << i << ": DSATUR disagrees with exact";
      if (entry.optimal) {
        EXPECT_EQ(entry.wavelengths, exact.chromatic_number)
            << "instance " << i;
      }
    }
  }
  // The small-instance cross-check must actually fire on a healthy slice.
  EXPECT_GE(exact_checked, kInstances / 4);
}

TEST(BatchCrossCheckTest, DispatchHistogramSpansMultipleStrategies) {
  const std::vector<Instance> workload = build_workload(120, 99);
  const std::vector<paths::DipathFamily> families = families_of(workload);
  const BatchReport report = core::solve_batch(families);
  std::size_t methods_hit = 0;
  for (const StrategyId id :
       {core::kStrategyTheorem1, core::kStrategySplitMerge,
        core::kStrategyDsatur, core::kStrategyExact}) {
    if (report.count(id) > 0) ++methods_hit;
  }
  EXPECT_GE(methods_hit, 2u);
  EXPECT_EQ(report.failure_count, 0u);
}

TEST(BatchDeterminismTest, IdenticalSeedsGiveIdenticalReportsAcrossThreads) {
  auto run = [](std::size_t threads) {
    BatchOptions opts;
    opts.threads = threads;
    opts.chunk = 8;
    opts.seed = 4242;
    return core::solve_generated_batch(150, mixed_instance, SolveOptions{},
                                       opts);
  };
  const BatchReport one = run(1);
  const BatchReport many = run(4);
  ASSERT_EQ(one.entries.size(), many.entries.size());
  for (std::size_t i = 0; i < one.entries.size(); ++i) {
    EXPECT_EQ(one.entries[i].strategy, many.entries[i].strategy) << i;
    EXPECT_EQ(one.entries[i].wavelengths, many.entries[i].wavelengths) << i;
    EXPECT_EQ(one.entries[i].load, many.entries[i].load) << i;
    EXPECT_EQ(one.entries[i].optimal, many.entries[i].optimal) << i;
  }
  // The deterministic (latency-free) CSV rendering is byte-identical.
  EXPECT_EQ(one.rows_table(false).to_csv(), many.rows_table(false).to_csv());
  // And a different seed produces a different stream (sanity: the seed is
  // actually plumbed through to the generators).
  BatchOptions other;
  other.chunk = 8;
  other.seed = 4243;
  const BatchReport different = core::solve_generated_batch(
      150, mixed_instance, SolveOptions{}, other);
  EXPECT_NE(one.rows_table(false).to_csv(),
            different.rows_table(false).to_csv());
}

TEST(BatchReportTest, AggregatesCountsAndPercentiles) {
  const std::vector<Instance> workload = build_workload(64, 7);
  const std::vector<paths::DipathFamily> families = families_of(workload);
  const BatchReport report = core::solve_batch(families);

  std::size_t total = report.failure_count;
  for (const StrategyId id :
       {core::kStrategyTheorem1, core::kStrategySplitMerge,
        core::kStrategyDsatur, core::kStrategyExact}) {
    total += report.count(id);
  }
  EXPECT_EQ(total, report.entries.size());
  EXPECT_LE(report.latency.p50, report.latency.p90);
  EXPECT_LE(report.latency.p90, report.latency.p99);
  EXPECT_LE(report.latency.p99, report.latency.max);
  EXPECT_GT(report.instances_per_second(), 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);

  const util::Table rows = report.rows_table();
  EXPECT_EQ(rows.rows(), report.entries.size());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"instances\":64"), std::string::npos);
  EXPECT_NE(json.find("\"methods\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
}

TEST(BatchFailureTest, PerInstanceFailuresAreCapturedNotFatal) {
  // A directed triangle is outside the solver's domain (not a DAG); the
  // batch must record the failure and keep solving its neighbours.
  const auto triangle = test::directed_triangle();
  const auto chain_graph = test::chain(4);
  std::vector<paths::DipathFamily> families;
  paths::DipathFamily good(chain_graph);
  good.add_through({0, 1, 2});
  good.add_through({1, 2, 3});
  paths::DipathFamily bad(triangle);
  bad.add_through({0, 1});
  families.push_back(good);
  families.push_back(bad);
  families.push_back(good);

  const BatchReport report = core::solve_batch(families);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.failure_count, 1u);
  EXPECT_FALSE(report.entries[0].failed);
  EXPECT_TRUE(report.entries[1].failed);
  EXPECT_FALSE(report.entries[2].failed);
  EXPECT_FALSE(report.entries[1].error.empty());
  // The failed row renders as "error" in the table and counts in json.
  const std::string csv = report.rows_table(false).to_csv();
  EXPECT_NE(csv.find("error"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"failures\":1"), std::string::npos);
}

TEST(BatchEdgeCaseTest, EmptyBatchAndEmptyFamiliesAreFine) {
  const BatchReport empty = core::solve_batch({});
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_EQ(empty.instances_per_second(), 0.0);
  EXPECT_EQ(empty.rows_table().rows(), 0u);

  // A family with zero paths solves trivially (0 wavelengths, 0 load).
  const auto g = test::chain(3);
  std::vector<paths::DipathFamily> families(2, paths::DipathFamily(g));
  const BatchReport report = core::solve_batch(families);
  EXPECT_EQ(report.failure_count, 0u);
  for (const auto& e : report.entries) {
    EXPECT_EQ(e.wavelengths, 0u);
    EXPECT_EQ(e.load, 0u);
  }
}

TEST(BatchOptionsTest, ZeroChunkIsSizedByTheCostModel) {
  // chunk 0 (the default) is not an error: with no model wired in, a cold
  // one with the built-in priors sizes the chunks.
  BatchOptions opts;
  opts.threads = 2;
  ASSERT_EQ(opts.chunk, 0u);
  const auto g = test::chain(3);
  std::vector<paths::DipathFamily> families(40, paths::DipathFamily(g));
  const BatchReport report = core::solve_batch(families, SolveOptions{}, opts);
  EXPECT_EQ(report.failure_count, 0u);
  EXPECT_EQ(report.chunk_size,
            core::CostModel().suggest_chunk(40, 2, 1, 256));
}

// ---------------------------------------------------------------------------
// Streaming sink + constant-memory mode.
// ---------------------------------------------------------------------------

/// Reads a whole file into a string.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BatchStreamingTest, StreamedCsvMatchesInMemoryCsvAtAnyThreadCount) {
  const std::string path =
      testing::TempDir() + "/wdag_stream_test.csv";
  BatchOptions in_memory;
  in_memory.seed = 4242;
  in_memory.threads = 1;
  const BatchReport reference = core::solve_generated_batch(
      97, mixed_instance, SolveOptions{}, in_memory);
  const std::string want = reference.rows_table(false).to_csv();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    api::EngineOptions engine_opts;
    engine_opts.threads = threads;
    api::Engine engine(engine_opts);

    api::BatchRequest request;
    request.generate = mixed_instance;
    request.count = 97;
    request.options = in_memory;
    request.options.threads = 0;  // the engine's pool runs the batch
    request.options.keep_entries = false;

    BatchReport report;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << path;
      api::CsvStreamSink sink(out);
      request.sinks = {&sink};
      report = engine.run_batch(request);
    }
    EXPECT_EQ(slurp(path), want) << "threads=" << threads;
    EXPECT_TRUE(report.entries.empty());
    EXPECT_EQ(report.instance_count, 97u);
  }
}

TEST(BatchStreamingTest, DroppedEntriesKeepAggregatesExact) {
  BatchOptions keep;
  keep.seed = 777;
  keep.threads = 2;
  const BatchReport full = core::solve_generated_batch(
      64, mixed_instance, SolveOptions{}, keep);

  BatchOptions drop = keep;
  drop.keep_entries = false;
  const BatchReport lean = core::solve_generated_batch(
      64, mixed_instance, SolveOptions{}, drop);

  EXPECT_TRUE(lean.entries.empty());
  EXPECT_EQ(lean.instance_count, full.instance_count);
  EXPECT_EQ(lean.failure_count, full.failure_count);
  EXPECT_EQ(lean.optimal_count, full.optimal_count);
  EXPECT_EQ(lean.total_wavelengths, full.total_wavelengths);
  EXPECT_EQ(lean.total_load, full.total_load);
  for (const StrategyId id :
       {core::kStrategyTheorem1, core::kStrategySplitMerge,
        core::kStrategyDsatur, core::kStrategyExact}) {
    EXPECT_EQ(lean.count(id), full.count(id));
  }
}

}  // namespace
