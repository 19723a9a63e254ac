// Sharded batch execution (core/shard.hpp + api::Engine::run_shard):
// deterministic plan ranges, manifest JSON round-trips, the byte-identical
// plan -> run xK -> merge pipeline across shard counts and thread counts,
// and — most importantly — the merge validation error paths: shards from
// different plans, missing/duplicate shards, overlapping or gapped index
// ranges, and truncated shard files must all fail with a clear diagnostic
// instead of producing a silent partial merge.

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "wdag/wdag.hpp"

namespace {

using namespace wdag;

constexpr std::size_t kCount = 60;
constexpr std::uint64_t kSeed = 4242;

/// The workload every pipeline test in this file shards.
ShardSpec test_spec() {
  ShardSpec spec;
  spec.family = "random-upp";
  spec.count = kCount;
  spec.seed = kSeed;
  return spec;
}

/// The unsharded reference: one engine, one CsvStreamSink, full range.
std::string unsharded_csv(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  Engine engine(options);
  std::ostringstream os;
  CsvStreamSink sink(os);
  BatchRequest request = BatchRequest::generated("random-upp", kCount);
  request.options.seed = kSeed;
  request.options.chunk = 4;
  request.options.keep_entries = false;
  request.sinks = {&sink};
  (void)engine.run_batch(request);
  return os.str();
}

/// One shard executed through Engine::run_shard into shard-CSV text (the
/// manifest header line + column header + this shard's rows).
std::string shard_csv_text(const ShardPlan& plan, std::size_t shard,
                           std::size_t threads, std::size_t chunk) {
  EngineOptions options;
  options.threads = threads;
  Engine engine(options);
  std::ostringstream os;
  os << core::shard_csv_header(plan.manifest(shard));
  CsvStreamSink sink(os);
  BatchRequest request =
      BatchRequest::generated(plan.spec().family, plan.spec().count,
                              plan.spec().params);
  request.options.seed = plan.spec().seed;
  request.options.chunk = chunk;
  request.options.keep_entries = false;
  request.sinks = {&sink};
  (void)engine.run_shard(request, shard, plan.shards());
  return os.str();
}

core::ShardCsv parse_shard(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  return core::read_shard_csv(in, name);
}

/// A well-formed shard CSV for an arbitrary (possibly tampered) manifest:
/// header + column header + one synthetic row per covered index.
std::string fabricated_shard_text(const ShardManifest& manifest) {
  std::string text = core::shard_csv_header(manifest);
  text += "index,method,paths,load,wavelengths,optimal\n";
  for (std::size_t i = manifest.range.begin; i < manifest.range.end; ++i) {
    text += std::to_string(i) + ",theorem1,1,1,1,1\n";
  }
  return text;
}

// ---------------------------------------------------------------------------
// Plan arithmetic
// ---------------------------------------------------------------------------

TEST(ShardPlanTest, RangesAreContiguousBalancedAndComplete) {
  for (const std::size_t count : {1u, 5u, 60u, 61u, 64u}) {
    for (std::size_t shards = 1; shards <= std::min<std::size_t>(count, 7);
         ++shards) {
      std::size_t expected_begin = 0;
      std::size_t min_size = count, max_size = 0;
      for (std::size_t i = 0; i < shards; ++i) {
        const core::ShardRange r = core::shard_range(count, shards, i);
        EXPECT_EQ(r.begin, expected_begin) << count << "/" << shards;
        EXPECT_GE(r.size(), 1u);
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, count);
      EXPECT_LE(max_size - min_size, 1u) << "unbalanced split";
    }
  }
}

TEST(ShardPlanTest, RejectsInvalidShardCounts) {
  EXPECT_THROW((void)core::shard_range(10, 0, 0), InvalidArgument);
  EXPECT_THROW((void)core::shard_range(10, 2, 2), InvalidArgument);
  // More shards than instances would create empty shards, which a merge
  // could not tell apart from missing ones.
  EXPECT_THROW(ShardPlan(test_spec(), kCount + 1), InvalidArgument);
  EXPECT_THROW(ShardPlan(test_spec(), 0), InvalidArgument);
}

TEST(ShardPlanTest, PlanIdIsAFunctionOfTheRequest) {
  const ShardPlan a(test_spec(), 5);
  const ShardPlan b(test_spec(), 5);
  EXPECT_EQ(a.id(), b.id());  // independently computed, no coordination

  ShardSpec other = test_spec();
  other.seed = kSeed + 1;
  EXPECT_NE(ShardPlan(other, 5).id(), a.id());
  EXPECT_NE(ShardPlan(test_spec(), 4).id(), a.id());

  // Execution knobs are deliberately NOT part of the identity: they never
  // change bytes, so shards may pick their own.
  EXPECT_EQ(core::shard_request_hash(test_spec()), a.request_hash());
}

// ---------------------------------------------------------------------------
// Manifest JSON
// ---------------------------------------------------------------------------

TEST(ShardManifestTest, JsonRoundTripPreservesEveryField) {
  ShardSpec spec = test_spec();
  spec.params.density = 0.3;
  spec.params.paths = 17;
  spec.solve.exact_threshold = 32;
  spec.force_strategy = "dsatur";
  const ShardPlan plan(spec, 4);
  const ShardManifest m = plan.manifest(2);

  const ShardManifest parsed = core::parse_manifest(core::manifest_to_json(m));
  EXPECT_EQ(parsed.version, m.version);
  EXPECT_EQ(parsed.plan_id, m.plan_id);
  EXPECT_EQ(parsed.request_hash, m.request_hash);
  EXPECT_EQ(parsed.shard, m.shard);
  EXPECT_EQ(parsed.shards, m.shards);
  EXPECT_EQ(parsed.range, m.range);
  EXPECT_EQ(parsed.spec.family, m.spec.family);
  EXPECT_EQ(parsed.spec.count, m.spec.count);
  EXPECT_EQ(parsed.spec.seed, m.spec.seed);
  EXPECT_EQ(parsed.spec.params.density, m.spec.params.density);
  EXPECT_EQ(parsed.spec.params.paths, m.spec.params.paths);
  EXPECT_EQ(parsed.spec.solve.exact_threshold, m.spec.solve.exact_threshold);
  EXPECT_EQ(parsed.spec.force_strategy, m.spec.force_strategy);
}

TEST(ShardManifestTest, RejectsEditedManifests) {
  const ShardPlan plan(test_spec(), 3);
  std::string json = core::manifest_to_json(plan.manifest(0));

  // A changed seed with a stale hash must NOT parse: it would generate
  // different instances under the same plan id and merge silently.
  const std::string seed_field = "\"seed\":" + std::to_string(kSeed);
  const std::size_t at = json.find(seed_field);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, seed_field.size(),
               "\"seed\":" + std::to_string(kSeed + 1));
  try {
    (void)core::parse_manifest(json);
    FAIL() << "edited manifest parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("request hash"), std::string::npos)
        << e.what();
  }
}

TEST(ShardManifestTest, RejectsUnsupportedVersionsAndGarbage) {
  const ShardPlan plan(test_spec(), 2);
  std::string json = core::manifest_to_json(plan.manifest(0));
  const std::size_t at = json.find("\"wdag_shard\":1");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 14, "\"wdag_shard\":2");
  EXPECT_THROW((void)core::parse_manifest(json), InvalidArgument);

  EXPECT_THROW((void)core::parse_manifest("not json"), InvalidArgument);
  EXPECT_THROW((void)core::parse_manifest("{\"wdag_shard\":1}"),
               InvalidArgument);
  EXPECT_THROW((void)core::parse_manifest(""), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The pipeline: plan -> run xK -> merge == unsharded bytes
// ---------------------------------------------------------------------------

TEST(ShardMergeTest, MergedBytesMatchUnshardedAcrossShardAndThreadCounts) {
  const std::string reference = unsharded_csv(1);
  ASSERT_EQ(reference, unsharded_csv(4)) << "unsharded run not thread-stable";

  for (const std::size_t shards : {1u, 2u, 5u}) {
    for (const std::size_t threads : {1u, 4u}) {
      const ShardPlan plan(test_spec(), shards);
      std::vector<core::ShardCsv> parts;
      for (std::size_t i = 0; i < shards; ++i) {
        // Alternate pinned chunk sizes across shards (0 = the cost
        // model's size): bytes must not care.
        const std::size_t chunk = std::size_t{4} * (i % 3);
        parts.push_back(parse_shard(shard_csv_text(plan, i, threads, chunk),
                                    "shard" + std::to_string(i)));
      }
      EXPECT_EQ(core::merge_shard_csv(parts), reference)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardMergeTest, RunShardCoversFamiliesSpansToo) {
  // Pre-built instance spans shard the same way: the slice is global-
  // indexed, so entries carry global indices.
  util::Xoshiro256 rng(7);
  std::vector<gen::Instance> instances;
  std::vector<paths::DipathFamily> families;
  for (int i = 0; i < 10; ++i) {
    instances.push_back(gen::workload_instance("tree", {}, rng));
    families.push_back(instances.back().family);
  }
  Engine engine(EngineOptions{.threads = 2, .solve = {}});
  BatchRequest request = BatchRequest::of(families);
  const core::BatchReport report = engine.run_shard(request, 1, 2);
  ASSERT_EQ(report.entries.size(), 5u);
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    EXPECT_EQ(report.entries[i].index, 5 + i);
  }
}

// ---------------------------------------------------------------------------
// Merge validation error paths — no silent partial merges
// ---------------------------------------------------------------------------

/// Expects `merge_shard_csv(parts)` to throw an InvalidArgument whose
/// message contains `needle`.
void expect_merge_error(const std::vector<core::ShardCsv>& parts,
                        const std::string& needle) {
  try {
    (void)core::merge_shard_csv(parts);
    FAIL() << "merge succeeded; expected error mentioning '" << needle << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ShardMergeErrorTest, RejectsShardsFromDifferentPlans) {
  const ShardPlan plan_a(test_spec(), 2);
  ShardSpec other = test_spec();
  other.seed = kSeed + 1;  // different workload => different plan
  const ShardPlan plan_b(other, 2);

  const std::vector<core::ShardCsv> parts = {
      parse_shard(fabricated_shard_text(plan_a.manifest(0)), "a0"),
      parse_shard(fabricated_shard_text(plan_b.manifest(1)), "b1"),
  };
  expect_merge_error(parts, "different plans");
}

TEST(ShardMergeErrorTest, RejectsAMissingShard) {
  const ShardPlan plan(test_spec(), 3);
  const std::vector<core::ShardCsv> parts = {
      parse_shard(fabricated_shard_text(plan.manifest(0)), "s0"),
      parse_shard(fabricated_shard_text(plan.manifest(2)), "s2"),
  };
  expect_merge_error(parts, "missing shard 1");
}

TEST(ShardMergeErrorTest, RejectsADuplicateShard) {
  const ShardPlan plan(test_spec(), 2);
  const std::vector<core::ShardCsv> parts = {
      parse_shard(fabricated_shard_text(plan.manifest(0)), "s0"),
      parse_shard(fabricated_shard_text(plan.manifest(0)), "s0-again"),
  };
  expect_merge_error(parts, "duplicate shard 0");
}

TEST(ShardMergeErrorTest, RejectsOverlappingIndexRanges) {
  const ShardPlan plan(test_spec(), 2);
  ShardManifest tampered = plan.manifest(1);
  tampered.range.begin -= 1;  // now overlaps shard 0's range
  const std::vector<core::ShardCsv> parts = {
      parse_shard(fabricated_shard_text(plan.manifest(0)), "s0"),
      parse_shard(fabricated_shard_text(tampered), "s1-overlap"),
  };
  expect_merge_error(parts, "overlaps");
}

TEST(ShardMergeErrorTest, RejectsGappedAndShortCoverage) {
  const ShardPlan plan(test_spec(), 2);
  ShardManifest gapped = plan.manifest(1);
  gapped.range.begin += 1;  // one index covered by no shard
  expect_merge_error({parse_shard(fabricated_shard_text(plan.manifest(0)),
                                  "s0"),
                      parse_shard(fabricated_shard_text(gapped), "s1-gap")},
                     "gap");

  ShardManifest short_tail = plan.manifest(1);
  short_tail.range.end -= 1;  // coverage stops before count
  expect_merge_error(
      {parse_shard(fabricated_shard_text(plan.manifest(0)), "s0"),
       parse_shard(fabricated_shard_text(short_tail), "s1-short")},
      "instances");
}

TEST(ShardMergeErrorTest, RejectsTruncatedShardFiles) {
  const ShardPlan plan(test_spec(), 2);
  const std::string text = fabricated_shard_text(plan.manifest(0));

  // Cut mid-row: the file no longer ends in a newline.
  try {
    (void)parse_shard(text.substr(0, text.size() - 3), "cut-mid-row");
    FAIL() << "truncated shard parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }

  // Cut on a row boundary: well-formed lines, but rows are missing.
  const std::size_t last_row_start = text.rfind('\n', text.size() - 2) + 1;
  try {
    (void)parse_shard(text.substr(0, last_row_start), "cut-at-row");
    FAIL() << "short shard parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }

  // Not a shard CSV at all.
  EXPECT_THROW((void)parse_shard("index,method\n0,x\n", "plain-csv"),
               InvalidArgument);
  EXPECT_THROW((void)parse_shard("", "empty"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Spec validation, striped layouts, and the JSON-lines pipeline
// ---------------------------------------------------------------------------

// Regression: a NaN/inf density canonicalized — and was emitted into
// manifests — as invalid JSON; the hash now rejects it at the source.
TEST(ShardSpecTest, RejectsNonFiniteParams) {
  ShardSpec spec = test_spec();
  spec.params.density = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)core::shard_request_hash(spec), InvalidArgument);
  EXPECT_THROW(ShardPlan(spec, 2), InvalidArgument);
  spec.params.density = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ShardPlan(spec, 2), InvalidArgument);
}

TEST(ShardPlanTest, StripedPlanDiffersFromContiguousAndRoundTrips) {
  const ShardPlan contiguous(test_spec(), 3);
  const ShardPlan striped(test_spec(), 3, core::ShardLayout::kStriped);
  EXPECT_EQ(contiguous.request_hash(), striped.request_hash());
  EXPECT_NE(contiguous.id(), striped.id()) << "layout must change the plan id";

  const ShardManifest m = striped.manifest(1);
  EXPECT_EQ(m.layout, core::ShardLayout::kStriped);
  EXPECT_EQ(m.range.begin, 1u);
  EXPECT_EQ(m.range.end, kCount);
  EXPECT_EQ(m.stride(), 3u);
  EXPECT_EQ(m.instance_count(), kCount / 3);

  const ShardManifest back = core::parse_manifest(core::manifest_to_json(m));
  EXPECT_EQ(back.layout, core::ShardLayout::kStriped);
  EXPECT_EQ(back.plan_id, striped.id());
  EXPECT_EQ(back.range, m.range);
}

TEST(ShardMergeTest, StripedMergedBytesMatchUnsharded) {
  const std::string reference = unsharded_csv(2);
  for (const std::size_t shards : {2u, 5u}) {
    const ShardPlan plan(test_spec(), shards, core::ShardLayout::kStriped);
    std::vector<core::ShardCsv> parts;
    for (std::size_t i = 0; i < shards; ++i) {
      EngineOptions options;
      options.threads = (i % 2 == 0) ? 1 : 4;
      Engine engine(options);
      std::ostringstream os;
      os << core::shard_csv_header(plan.manifest(i));
      CsvStreamSink sink(os);
      BatchRequest request = BatchRequest::generated(
          plan.spec().family, plan.spec().count, plan.spec().params);
      request.options.seed = plan.spec().seed;
      request.options.chunk = 4;
      request.options.keep_entries = false;
      request.sinks = {&sink};
      (void)engine.run_shard(request, i, shards,
                             core::ShardLayout::kStriped);
      parts.push_back(parse_shard(os.str(), "striped" + std::to_string(i)));
    }
    EXPECT_EQ(core::merge_shard_csv(parts), reference)
        << "striped shards=" << shards;
  }
}

TEST(ShardMergeErrorTest, RejectsMixedLayouts) {
  const ShardPlan contiguous(test_spec(), 2);
  const ShardPlan striped(test_spec(), 2, core::ShardLayout::kStriped);
  // Same request, different layouts => different plan ids: the plan-id
  // check refuses before any row surgery happens.
  std::string striped_text = core::shard_csv_header(striped.manifest(1));
  striped_text += "index,method,paths,load,wavelengths,optimal\n";
  for (std::size_t i = 1; i < kCount; i += 2) {
    striped_text += std::to_string(i) + ",theorem1,1,1,1,1\n";
  }
  expect_merge_error(
      {parse_shard(fabricated_shard_text(contiguous.manifest(0)), "c0"),
       parse_shard(striped_text, "s1")},
      "different plans");
}

/// A well-formed shard JSON-lines text for `manifest`: manifest line, one
/// synthetic row object per covered index, one aggregate report line.
std::string fabricated_shard_json(const ShardManifest& manifest) {
  std::string text = core::manifest_to_json(manifest) + "\n";
  for (std::size_t i = manifest.range.begin; i < manifest.range.end;
       i += manifest.stride()) {
    text += "{\"index\":" + std::to_string(i) + ",\"wavelengths\":1}\n";
  }
  text += "{\"instances\":" + std::to_string(manifest.instance_count()) +
          "}\n";
  return text;
}

core::ShardJson parse_shard_json(const std::string& text,
                                 const std::string& name) {
  std::istringstream in(text);
  return core::read_shard_json(in, name);
}

TEST(ShardJsonTest, ReadValidatesAndDropsTheAggregateLine) {
  const ShardPlan plan(test_spec(), 3);
  const ShardManifest m = plan.manifest(1);
  const core::ShardJson shard =
      parse_shard_json(fabricated_shard_json(m), "j1");
  EXPECT_EQ(shard.row_count, m.instance_count());
  EXPECT_EQ(shard.rows.find("{\"instances\""), std::string::npos)
      << "aggregate line leaked into the row bytes";
  EXPECT_NE(shard.rows.find("{\"index\":" +
                            std::to_string(m.range.begin) + ","),
            std::string::npos);
}

TEST(ShardJsonTest, MergeReassemblesRowsInGlobalIndexOrder) {
  const ShardPlan plan(test_spec(), 3, core::ShardLayout::kStriped);
  std::vector<core::ShardJson> parts;
  for (std::size_t i = 0; i < 3; ++i) {
    parts.push_back(parse_shard_json(
        fabricated_shard_json(plan.manifest(i)), "j" + std::to_string(i)));
  }
  const std::string merged = core::merge_shard_json(parts);
  std::istringstream in(merged);
  std::string line;
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    const std::string want = "{\"index\":" + std::to_string(expected) + ",";
    EXPECT_EQ(line.substr(0, want.size()), want);
    ++expected;
  }
  EXPECT_EQ(expected, kCount);
}

TEST(ShardJsonTest, RejectsTruncationAndMissingAggregate) {
  const ShardPlan plan(test_spec(), 2);
  const ShardManifest m = plan.manifest(0);
  const std::string text = fabricated_shard_json(m);

  // Drop the aggregate line: the reader calls that a truncation.
  const std::size_t last_line =
      text.rfind('\n', text.size() - 2) + 1;
  EXPECT_THROW((void)parse_shard_json(text.substr(0, last_line), "no-agg"),
               InvalidArgument);

  // Replace the aggregate with one more row object: also rejected.
  std::string extra_row = text.substr(0, last_line);
  extra_row += "{\"index\":999,\"wavelengths\":1}\n";
  EXPECT_THROW((void)parse_shard_json(extra_row, "extra-row"),
               InvalidArgument);

  // Trailing bytes after the aggregate are rejected too.
  EXPECT_THROW((void)parse_shard_json(text + "garbage\n", "tail"),
               InvalidArgument);

  // A row carrying the wrong global index is named by position.
  std::string wrong = core::manifest_to_json(m) + "\n";
  for (std::size_t i = 0; i < m.range.size(); ++i) {
    wrong += "{\"index\":" + std::to_string(i + 1) + ",\"w\":1}\n";
  }
  wrong += "{\"instances\":1}\n";
  EXPECT_THROW((void)parse_shard_json(wrong, "wrong-index"),
               InvalidArgument);
}

TEST(ShardMergeErrorTest, RejectsRowsWithTheWrongIndices) {
  const ShardPlan plan(test_spec(), 2);
  const ShardManifest m = plan.manifest(1);
  // Rows carrying shard 0's indices under shard 1's manifest: the leading
  // index field betrays them.
  std::string text = core::shard_csv_header(m);
  text += "index,method,paths,load,wavelengths,optimal\n";
  for (std::size_t i = 0; i < m.range.size(); ++i) {
    text += std::to_string(i) + ",theorem1,1,1,1,1\n";
  }
  EXPECT_THROW((void)parse_shard(text, "wrong-range"), InvalidArgument);
}

}  // namespace
