#pragma once
// Sharded batch execution: plan / run / merge.
//
// A ShardPlan splits one generated-batch request into K global index sets
// so the shards can run on K machines (or K processes) and merge back to
// the SAME BYTES a single-process streaming run would have produced. The
// determinism stack that makes this cheap:
//
//   * every instance derives its RNG from (seed, GLOBAL index) — so a
//     shard covering a set of global indices generates exactly the
//     instances the unsharded run generates at those indices
//     (BatchOptions::index_base / index_stride);
//   * result sinks receive rows in strict instance order at any thread
//     count, so a shard's CSV body lists its covered global indices in
//     ascending order;
//   * the merge is therefore a pure reordering of validated row bytes —
//     concatenation for contiguous layouts, a round-robin interleave for
//     striped ones — after checking that the shard files belong to one
//     plan and cover the full range with no gap, overlap, duplicate or
//     truncation.
//
// Two layouts are supported:
//
//   * kContiguous — shard i covers one balanced range [lo, hi). The
//     default, and the cheapest to merge (byte concatenation).
//   * kStriped — shard i covers {i, i+K, i+2K, ...}: round-robin over the
//     global index range. When instance cost grows with the index (an
//     exact-heavy tail), striping balances the tail across all workers
//     instead of serializing it on the last shard.
//
// Each shard is described by a ShardManifest: a single JSON object
// carrying the format version, the plan id, the request hash, the layout,
// the global index range, and the full request (generator family + params
// + seed + solver knobs) — a shard run needs the manifest file and
// nothing else. Shard CSV outputs embed the same manifest as a leading
// `# wdag-shard` comment line, so merge validation needs only the shard
// files.
//
// The request hash covers exactly the inputs that determine output bytes
// (family, params, count, seed, solver knobs, forced strategy). The
// chunk geometry and thread count are deliberately excluded: the
// determinism contract makes them byte-neutral, so every shard may pick
// whatever execution knobs suit its machine.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"
#include "gen/workloads.hpp"

namespace wdag::core {

/// Version stamp of the manifest / shard-CSV format. Readers reject other
/// versions instead of guessing.
inline constexpr int kShardFormatVersion = 1;

/// How a plan distributes global indices over its shards.
enum class ShardLayout {
  kContiguous,  ///< shard i covers one balanced range [lo, hi)
  kStriped,     ///< shard i covers {i, i+K, i+2K, ...} (round-robin)
};

/// "contiguous" / "striped" — the spelling used in manifests and flags.
[[nodiscard]] std::string_view layout_name(ShardLayout layout);

/// Parses a layout name; throws wdag::InvalidArgument on anything else.
[[nodiscard]] ShardLayout parse_layout(std::string_view name);

/// The serializable request a plan shards: everything that affects the
/// bytes a batch emits. One ShardSpec == one reproducible workload.
struct ShardSpec {
  std::string family;            ///< generator name (gen::workload_names())
  gen::WorkloadParams params{};  ///< generator knobs
  std::size_t count = 0;         ///< GLOBAL instance count of the batch
  std::uint64_t seed = 1;        ///< base seed of the per-instance RNG
  /// Solver knobs that change results (exact_threshold, exact_node_budget).
  SolveOptions solve{};
  /// Forced strategy name; empty = normal dispatch.
  std::string force_strategy;
};

/// FNV-1a hash of the canonical serialization of `spec` — identical
/// specs hash identically on every platform. Excludes execution knobs
/// (threads/chunk) by construction: they never change bytes.
/// Throws wdag::InvalidArgument on non-finite params (a NaN density
/// would canonicalize — and emit — as invalid JSON).
[[nodiscard]] std::uint64_t shard_request_hash(const ShardSpec& spec);

/// The FNV-1a 64-bit hash of raw bytes — the same function the plan /
/// request hashes build on, exposed for payload checksums (the worker
/// wire protocol stamps every shard-CSV payload with it).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

/// A global index range [begin, end). For striped shards the covered
/// indices are begin, begin + stride, ... < end rather than every index.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// The range shard `index` of `shards` covers in a `count`-instance
/// contiguous batch: contiguous, ascending, balanced (the first
/// count % shards ranges are one longer). Requires shards >= 1 and
/// index < shards.
[[nodiscard]] ShardRange shard_range(std::size_t count, std::size_t shards,
                                     std::size_t index);

/// Everything a shard runner (or merger) needs to know about one shard.
struct ShardManifest {
  int version = kShardFormatVersion;
  std::uint64_t plan_id = 0;       ///< identifies the plan across shards
  std::uint64_t request_hash = 0;  ///< shard_request_hash(spec)
  std::size_t shard = 0;           ///< this shard's index, 0-based
  std::size_t shards = 1;          ///< total shards in the plan
  ShardLayout layout = ShardLayout::kContiguous;
  ShardRange range;                ///< global indices this shard solves
  ShardSpec spec;                  ///< the full (global) request

  /// Distance between consecutive covered global indices: 1 for
  /// contiguous shards, `shards` for striped ones.
  [[nodiscard]] std::size_t stride() const {
    return layout == ShardLayout::kStriped ? shards : 1;
  }

  /// Number of instances this shard solves (== its row count).
  [[nodiscard]] std::size_t instance_count() const {
    const std::size_t s = stride();
    return (range.size() + s - 1) / s;
  }
};

/// A deterministic split of one ShardSpec into `shards` index sets. The
/// plan id is a pure function of (request hash, count, shard count,
/// layout, format version), so independently-constructed plans of the
/// same request agree — no coordination service needed.
class ShardPlan {
 public:
  /// Throws wdag::InvalidArgument when shards == 0 or shards > count
  /// (an empty shard could never be distinguished from a missing one at
  /// merge time), or when the spec carries non-finite params. count == 0
  /// admits only shards == 1.
  ShardPlan(ShardSpec spec, std::size_t shards,
            ShardLayout layout = ShardLayout::kContiguous);

  [[nodiscard]] const ShardSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] ShardLayout layout() const { return layout_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t request_hash() const { return request_hash_; }

  /// The global range of shard `index` (< shards()). Striped shards
  /// report [index, count) and cover every stride()-th index within.
  [[nodiscard]] ShardRange range(std::size_t index) const;

  /// The manifest of shard `index` (< shards()).
  [[nodiscard]] ShardManifest manifest(std::size_t index) const;

 private:
  ShardSpec spec_;
  std::size_t shards_;
  ShardLayout layout_;
  std::uint64_t request_hash_;
  std::uint64_t id_;
};

/// The manifest as a single-line JSON object (stable key order) — the
/// payload of both the .json manifest files and the shard-CSV header.
/// Contiguous manifests keep the exact version-1 byte layout; striped
/// ones add a "layout" field (readers without striping support reject
/// them at the plan-id check rather than merging garbage).
[[nodiscard]] std::string manifest_to_json(const ShardManifest& m);

/// Parses a manifest back from JSON. Throws wdag::InvalidArgument on
/// malformed JSON, an unsupported version, or a recorded plan id /
/// request hash that disagrees with the one recomputed from the parsed
/// request (a hand-edited manifest would otherwise merge silently).
[[nodiscard]] ShardManifest parse_manifest(std::string_view json);

/// The `# wdag-shard <json>` comment line (newline-terminated) a shard
/// CSV carries before the column header.
[[nodiscard]] std::string shard_csv_header(const ShardManifest& m);

/// The canonical CSV column header every shard CSV (and the unsharded
/// streaming CSV) carries — byte-identical to api::CsvStreamSink's.
[[nodiscard]] std::string_view shard_csv_column_header();

/// One parsed shard CSV output: its embedded manifest plus the raw row
/// bytes (the rows of the unsharded output at this shard's indices).
struct ShardCsv {
  ShardManifest manifest;
  std::string rows;           ///< row bytes, newline-terminated
  std::size_t row_count = 0;  ///< == manifest.instance_count() once validated
};

/// Reads and validates one shard CSV: the `# wdag-shard` header line, the
/// canonical column header, and one row per covered index whose leading
/// index field matches its expected global index (stride-aware for
/// striped shards). Throws wdag::InvalidArgument naming `name` on any
/// mismatch — including a truncated file (missing rows or a final row
/// without its newline).
[[nodiscard]] ShardCsv read_shard_csv(std::istream& in,
                                      const std::string& name);

/// Opens `path` and validates it through read_shard_csv. Throws
/// wdag::InvalidArgument naming the path when the file cannot be opened,
/// plus every read_shard_csv failure mode.
[[nodiscard]] ShardCsv read_shard_csv_file(const std::string& path);

/// Validates that `shards` are the complete shard set of ONE plan — same
/// plan id and request hash, every index 0..K-1 present exactly once, and
/// full gap-free coverage of [0, count) — then reassembles their rows
/// under one column header: concatenation for contiguous plans, a
/// round-robin interleave for striped ones. The result is byte-identical
/// to the unsharded streaming CSV of the same request. Throws
/// wdag::InvalidArgument with a diagnostic naming the offending shard(s)
/// on any violation; no partial merge is ever produced.
[[nodiscard]] std::string merge_shard_csv(const std::vector<ShardCsv>& shards);

/// One parsed shard JSON-lines output (`shard run --json`): the leading
/// manifest line, then one row object per covered index. The trailing
/// per-shard aggregate report line is validated and dropped — aggregates
/// of a partial index set cannot appear byte-identically in a merge.
struct ShardJson {
  ShardManifest manifest;
  std::string rows;           ///< row-object lines, newline-terminated
  std::size_t row_count = 0;  ///< == manifest.instance_count() once validated
};

/// Reads and validates one shard JSON-lines file: manifest line, one
/// `{"index":G,...}` object per covered index in stride order, then the
/// aggregate report line. Throws wdag::InvalidArgument naming `name` on
/// any mismatch or truncation.
[[nodiscard]] ShardJson read_shard_json(std::istream& in,
                                        const std::string& name);

/// The JSON-lines analogue of merge_shard_csv: validates the complete
/// shard set of one plan and reassembles the row objects in global index
/// order. The result is byte-identical to the row lines an unsharded
/// api::JsonSink run emits (the aggregate report line is deliberately
/// absent — recompute it from the merged rows if needed).
[[nodiscard]] std::string merge_shard_json(const std::vector<ShardJson>& shards);

}  // namespace wdag::core
