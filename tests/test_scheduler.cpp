// Scheduler determinism and cost-model coverage for the batch engine
// (core/batch.hpp + core/cost_model.hpp + util/thread_pool.hpp):
//
//   * cost-model-sized and pinned chunks produce byte-identical streamed
//     CSV across seeds {42, 4242} x threads {1, 2, 8} — the chunk
//     geometry moves where work runs, never what it computes;
//   * an unpinned batch takes the chunk size the cost model suggests, a
//     pinned one wins, and the per-worker chunk counts add up;
//   * the cost model's chunk suggestions respect their bounds and move
//     the right way (cheap observations -> coarser chunks, exact-solver
//     observations -> finer).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/sink.hpp"
#include "core/batch.hpp"
#include "core/cost_model.hpp"
#include "gen/instance.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdag;
using core::BatchOptions;
using core::BatchReport;
using core::CostModel;
using core::CostSample;
using gen::Instance;
using util::Xoshiro256;

/// The shared mixed-regime stream (tests/helpers.hpp) as a generator.
Instance mixed_instance(Xoshiro256& rng, std::size_t index) {
  return test::mixed_regime_instance(rng, index);
}

/// Streams a generated batch through a CsvStreamSink and returns the bytes
/// (`chunk` 0 = the cost model's size).
std::string batch_csv(api::Engine& engine, std::uint64_t seed,
                      std::size_t chunk, std::size_t count) {
  std::ostringstream out;
  api::CsvStreamSink sink(out);
  api::BatchRequest request;
  request.generate = mixed_instance;
  request.count = count;
  request.options.seed = seed;
  request.options.chunk = chunk;
  request.options.keep_entries = false;
  request.sinks = {&sink};
  const BatchReport report = engine.run_batch(request);
  EXPECT_EQ(report.instance_count, count);
  if (chunk != 0) {
    EXPECT_EQ(report.chunk_size, chunk);
  }
  return out.str();
}

TEST(SchedulerDeterminismTest, AutoChunkMatchesPinnedByteForByte) {
  constexpr std::size_t kCount = 120;
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{4242}}) {
    // Reference: a pinned chunk of 16 on one thread.
    api::EngineOptions ref_options;
    ref_options.threads = 1;
    api::Engine reference_engine(ref_options);
    const std::string want = batch_csv(reference_engine, seed, 16, kCount);
    ASSERT_FALSE(want.empty());

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      api::EngineOptions options;
      options.threads = threads;
      api::Engine engine(options);
      for (const std::size_t chunk :
           {std::size_t{0}, std::size_t{1}, std::size_t{16}}) {
        EXPECT_EQ(batch_csv(engine, seed, chunk, kCount), want)
            << "chunk=" << chunk << " seed=" << seed
            << " threads=" << threads;
      }
      // A rerun on the now-trained cost model (likely a different chunk
      // size) — the bytes still cannot move.
      EXPECT_EQ(batch_csv(engine, seed, 0, kCount), want)
          << "auto(rerun) seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(SchedulerDeterminismTest, ChunkGeometryNeverChangesOutput) {
  api::EngineOptions options;
  options.threads = 2;
  api::Engine engine(options);
  std::string reference;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    std::ostringstream out;
    api::CsvStreamSink sink(out);
    api::BatchRequest request;
    request.generate = mixed_instance;
    request.count = 90;
    request.options.seed = 777;
    request.options.chunk = chunk;
    request.sinks = {&sink};
    (void)engine.run_batch(request);
    if (reference.empty()) {
      reference = out.str();
    } else {
      EXPECT_EQ(out.str(), reference) << "chunk=" << chunk;
    }
  }
}

TEST(SchedulerChunkTest, UnpinnedChunkFollowsTheCostModelAndPinnedWins) {
  api::EngineOptions options;
  options.threads = 4;
  api::Engine engine(options);
  api::BatchRequest request;
  request.generate = mixed_instance;
  request.count = 96;
  request.options.seed = 4242;
  const auto check_chunks = [](const BatchReport& report) {
    EXPECT_EQ(report.failure_count, 0u);
    ASSERT_EQ(report.worker_chunks.size(), 4u);
    std::size_t total = 0;
    for (const std::size_t w : report.worker_chunks) total += w;
    EXPECT_EQ(total, (96 + report.chunk_size - 1) / report.chunk_size);
  };

  // Unpinned, twice: on the cold model, then on the one the first batch
  // trained, with the deprecated 0.4.1 knobs set (the old stealing
  // schedule, bounds once rejected as inverted), which change nothing.
  // Either way the batch takes the model's suggestion as it stood just
  // before the batch.
  for (int run = 0; run < 2; ++run) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    if (run == 1) {
      request.options.schedule = core::Schedule::kStealing;
      request.options.min_chunk = 8;
      request.options.max_chunk = 4;
    }
#pragma GCC diagnostic pop
    const std::size_t suggested =
        engine.cost_model().suggest_chunk(96, 4, 1, 256);
    const BatchReport report = engine.run_batch(request);
    EXPECT_EQ(report.chunk_size, suggested) << "run " << run;
    check_chunks(report);
  }

  // A pinned chunk wins over the model: 96 / 5 -> 20 chunks.
  request.options.chunk = 5;
  const BatchReport pinned = engine.run_batch(request);
  EXPECT_EQ(pinned.chunk_size, 5u);
  check_chunks(pinned);
}

TEST(SchedulerReportTest, PinnedChunkReportsItsGeometry) {
  BatchOptions options;
  options.threads = 2;
  options.chunk = 16;
  const BatchReport report =
      core::solve_generated_batch(64, mixed_instance, {}, options);
  EXPECT_EQ(report.chunk_size, 16u);
  EXPECT_EQ(report.worker_chunks.size(), report.threads_used);
  std::size_t total = 0;
  for (const std::size_t w : report.worker_chunks) total += w;
  EXPECT_EQ(total, 4u);  // 64 instances / chunk 16
  // The report JSON keeps its schedule key, fixed, until 0.5.0.
  EXPECT_NE(report.to_json().find("\"schedule\":\"fixed\""),
            std::string::npos);
}

TEST(SchedulerBackpressureTest, BoundedReorderWindowStaysCorrectBehindAStraggler) {
  // 600 one-instance chunks, instance 0 sleeping long enough for the
  // other workers to race past the 256-chunk reorder window: the
  // dispatcher must backpressure (bounded memory) and still emit every
  // row in order. A deadlock here shows up as a test timeout.
  const core::BatchItemSolver item =
      [](util::Xoshiro256&, std::size_t i, core::BatchEntry& entry,
         core::SolveScratch&) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        entry.strategy = core::kStrategyTheorem1;
        entry.paths = i;
      };
  std::ostringstream out;
  api::CsvStreamSink sink(out);
  api::ResultSink* sinks[] = {&sink};
  BatchOptions options;
  options.threads = 4;
  options.chunk = 1;
  options.keep_entries = false;
  const core::BatchReport report = core::run_batch_items(
      600, item, options, core::builtin_strategy_names(), sinks);
  EXPECT_EQ(report.instance_count, 600u);
  // Rows arrived strictly in instance order despite the straggler.
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << i;
    EXPECT_EQ(line.substr(0, line.find(',')), std::to_string(i));
  }
}

TEST(SchedulerBackpressureTest, ThrowingSinkFailsTheBatchInsteadOfDeadlocking) {
  // A sink that dies mid-stream poisons the bounded reorder window: the
  // batch must surface the error (after letting the remaining chunks
  // run), not block the other submitters forever behind the chunk whose
  // delivery never completed. A regression here shows up as a timeout.
  class ExplodingSink final : public api::ResultSink {
   public:
    void row(const core::BatchEntry& entry) override {
      if (entry.index == 5) throw std::runtime_error("disk full");
    }
  };
  ExplodingSink sink;
  api::ResultSink* sinks[] = {&sink};
  const core::BatchItemSolver item =
      [](util::Xoshiro256&, std::size_t, core::BatchEntry& entry,
         core::SolveScratch&) { entry.strategy = core::kStrategyTheorem1; };
  BatchOptions options;
  options.threads = 4;
  options.chunk = 1;
  options.keep_entries = false;
  EXPECT_THROW(core::run_batch_items(600, item, options,
                                     core::builtin_strategy_names(), sinks),
               std::runtime_error);
}

TEST(LatencyPercentileTest, NearestRankValuesAreExact) {
  // Inject a known latency sample through the driver's item callback
  // (millis is whatever the item wrote): (i * 37) mod 1000 is a
  // permutation of 0..999, shifted to 1..1000. Nearest-rank percentiles
  // of 1..1000 are exact: p50 = 500, p90 = 900, p99 = 990, max = 1000.
  const core::BatchItemSolver item =
      [](util::Xoshiro256&, std::size_t i, core::BatchEntry& entry,
         core::SolveScratch&) {
        entry.strategy = core::kStrategyTheorem1;
        entry.millis = static_cast<double>((i * 37) % 1000 + 1);
      };
  BatchOptions options;
  options.threads = 2;
  const core::BatchReport report = core::run_batch_items(
      1000, item, options, core::builtin_strategy_names());
  EXPECT_DOUBLE_EQ(report.latency.p50, 500.0);
  EXPECT_DOUBLE_EQ(report.latency.p90, 900.0);
  EXPECT_DOUBLE_EQ(report.latency.p99, 990.0);
  EXPECT_DOUBLE_EQ(report.latency.max, 1000.0);
  EXPECT_DOUBLE_EQ(report.latency.mean, 500.5);

  // Same sample through the streaming (keep_entries = false) path.
  BatchOptions streaming = options;
  streaming.keep_entries = false;
  const core::BatchReport lean = core::run_batch_items(
      1000, item, streaming, core::builtin_strategy_names());
  EXPECT_DOUBLE_EQ(lean.latency.p50, 500.0);
  EXPECT_DOUBLE_EQ(lean.latency.p90, 900.0);
  EXPECT_DOUBLE_EQ(lean.latency.p99, 990.0);
  EXPECT_DOUBLE_EQ(lean.latency.max, 1000.0);
}

TEST(CostModelTest, SuggestChunkRespectsBounds) {
  const CostModel model;
  for (std::size_t count : {std::size_t{10}, std::size_t{1000},
                            std::size_t{100000}}) {
    const std::size_t chunk = model.suggest_chunk(count, 4, 10, 16);
    EXPECT_GE(chunk, 10u) << count;
    EXPECT_LE(chunk, 16u) << count;
  }
}

TEST(CostModelTest, CheapWorkBatchesCoarseExpensiveWorkSplitsFine) {
  CostModel cheap;
  CostModel expensive;
  std::vector<CostSample> cheap_samples(200,
                                        {core::kStrategyTheorem1, 32, 5.0});
  std::vector<CostSample> costly_samples(200,
                                         {core::kStrategyExact, 32, 5000.0});
  cheap.observe(cheap_samples);
  expensive.observe(costly_samples);

  EXPECT_LT(cheap.expected_micros(), expensive.expected_micros());
  const std::size_t coarse = cheap.suggest_chunk(100000, 4, 1, 4096);
  const std::size_t fine = expensive.suggest_chunk(100000, 4, 1, 4096);
  EXPECT_GT(coarse, fine);
  EXPECT_EQ(fine, 1u);  // 5ms instances: one straggler per chunk
  // Coarse chunks still leave ~8 chunks per worker to steal.
  EXPECT_LE(coarse, 100000u / (8 * 4));
}

TEST(CostModelTest, StragglerGuardSplitsFineEvenWhenCheapWorkDominates) {
  // Cheap observations across three strategies drag the mean down, but
  // two observed ~12ms exact solves are enough for the guard: a chunk
  // must never hold more than ~8ms of worst-case (all-straggler) work.
  CostModel model;
  for (const core::StrategyId s : {core::kStrategyTheorem1,
                                   core::kStrategySplitMerge,
                                   core::kStrategyDsatur}) {
    std::vector<CostSample> cheap(200, {s, 32, 5.0});
    model.observe(cheap);
  }
  std::vector<CostSample> heavy(2, {core::kStrategyExact, 32, 12000.0});
  model.observe(heavy);
  EXPECT_LT(model.expected_micros(), 500.0);  // mean alone would batch coarse
  EXPECT_EQ(model.suggest_chunk(100000, 4, 1, 4096), 1u);
}

TEST(CostModelTest, EstimatesTrackObservationsPerStrategy) {
  CostModel model;
  std::vector<CostSample> samples(64, {core::kStrategyDsatur, 32, 250.0});
  model.observe(samples);
  EXPECT_NEAR(model.estimate_micros(core::kStrategyDsatur, 32), 250.0, 60.0);
  // A nearby size bucket falls back to the nearest observed one.
  EXPECT_NEAR(model.estimate_micros(core::kStrategyDsatur, 64), 250.0, 60.0);
  // User-registered strategies past the built-ins are accepted.
  std::vector<CostSample> custom(8, {CostSample{7, 16, 90.0}});
  model.observe(custom);
  EXPECT_NEAR(model.estimate_micros(7, 16), 90.0, 30.0);
}

}  // namespace
