// The three batch workloads: upp-mix, certify-exact and dense-dsatur.
//
// A run builds its input pool from the seed during set-up, times
// api::Engine::run_batch over slices of that pool with a CSV stream sink
// attached (what `wdag batch --stream-csv` does), then checks every
// answer in a separate pass that keeps colorings. The traced run adds a
// replay of the same inputs through the public layer functions that
// api::solve_with calls, one span per call.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/engine.hpp"
#include "api/sink.hpp"
#include "api/strategy.hpp"
#include "common.hpp"
#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "conflict/exact_color.hpp"
#include "core/split_merge.hpp"
#include "core/theorem1.hpp"
#include "dag/classify.hpp"
#include "gen/workloads.hpp"
#include "paths/load.hpp"

namespace perfbench {
namespace {

using wdag::core::StrategyId;
using wdag::gen::Instance;
using wdag::gen::WorkloadParams;
using wdag::util::Xoshiro256;

// --- workloads --------------------------------------------------------------

Instance make_upp_mix(Xoshiro256& rng) {
  return wdag::gen::workload_instance("random-upp", WorkloadParams{}, rng);
}

/// The same instance with its dipaths in a random order: an identical
/// conflict structure under different path ids, so a repeated gadget is
/// never the same input twice.
Instance shuffled(const Instance& base, Xoshiro256& rng) {
  std::vector<std::size_t> order(base.family.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  Instance out;
  out.graph = base.graph;
  out.family = wdag::paths::DipathFamily(*out.graph);
  for (const std::size_t i : order) {
    out.family.add_unchecked(base.family.paths()[i]);
  }
  return out;
}

Instance make_certify_exact(Xoshiro256& rng) {
  const std::uint64_t pick = rng.below(20);
  WorkloadParams p;
  if (pick < 12) {
    // Easy proofs: distinct random-DAG families of 16..48 paths.
    p.size = 24;
    p.density = 0.2;
    p.paths = 16 + static_cast<std::size_t>(rng.below(33));
    return wdag::gen::workload_instance("random-dag", p, rng);
  }
  if (pick < 17) {
    // Hard proofs of w > pi: odd-cycle gadgets, conflict graph C_{2k+1}.
    p.k = 2 + static_cast<std::size_t>(rng.below(22));
    return shuffled(wdag::gen::workload_instance("odd-cycle", p, rng), rng);
  }
  p.h = 2;  // Havet/Wagner: pi = 4, w = 6
  return shuffled(wdag::gen::workload_instance("havet", p, rng), rng);
}

Instance make_dense_dsatur(Xoshiro256& rng) {
  WorkloadParams p;
  p.size = 60;
  p.density = 0.15;
  p.paths = 1500;
  return wdag::gen::workload_instance("random-dag", p, rng);
}

struct BatchSpec {
  const char* name;
  std::size_t threads;  ///< engine threads
  std::size_t slice;    ///< instances per timed run_batch call
  std::size_t slices;   ///< the pool holds slice * slices instances
  std::size_t warmup;   ///< slices solved, untimed, at the end of set-up
  std::size_t replay;   ///< pool prefix replayed by the traced run
  std::size_t setups;   ///< set-up repetitions; the median is reported
  bool force_exact;
  Instance (*make)(Xoshiro256&);
};

constexpr BatchSpec kSpecs[] = {
    {"upp-mix", 2, 4096, 16, 4, 16384, 7, false, make_upp_mix},
    {"certify-exact", 1, 256, 64, 8, 4096, 7, true, make_certify_exact},
    {"dense-dsatur", 1, 16, 64, 1, 32, 5, false, make_dense_dsatur},
};

const BatchSpec* find_spec(const std::string& name) {
  for (const BatchSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// --- sinks -----------------------------------------------------------------

/// An ostream that FNV-1a hashes what is written instead of storing it.
class HashStream {
 public:
  HashStream() : out_(&buf_) {}
  HashStream(const HashStream&) = delete;
  HashStream& operator=(const HashStream&) = delete;
  std::ostream& stream() { return out_; }
  [[nodiscard]] std::uint64_t digest() const { return buf_.h; }

 private:
  struct Buf : std::streambuf {
    std::uint64_t h = 1469598103934665603ULL;
    void mix(char c) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    int_type overflow(int_type c) override {
      if (!traits_type::eq_int_type(c, traits_type::eof())) {
        mix(traits_type::to_char_type(c));
      }
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      for (std::streamsize i = 0; i < n; ++i) mix(s[i]);
      return n;
    }
  };
  Buf buf_;
  std::ostream out_;
};

/// Stamps, on the benchmark's clock, the arrival of the row at the
/// nearest-rank median of a call's `rows`. Rows reach the sinks one at
/// a time in instance order, so that is when half the answers are out.
class HalfwaySink final : public wdag::api::ResultSink {
 public:
  explicit HalfwaySink(std::size_t rows) : half_((rows + 1) / 2) {}
  void row(const wdag::core::BatchEntry& /*entry*/) override {
    if (++seen_ == half_) at_ = Clock::now();
  }
  [[nodiscard]] Clock::time_point at() const { return at_; }

 private:
  std::size_t half_;
  std::size_t seen_ = 0;
  Clock::time_point at_{};
};

/// Times api::CsvStreamSink::row from the outside (api.sink_us).
class TimedCsvSink final : public wdag::api::ResultSink {
 public:
  explicit TimedCsvSink(std::ostream& out) : inner_(out) {}
  void row(const wdag::core::BatchEntry& entry) override {
    const std::int64_t t0 = SpanLog::now_ns();
    inner_.row(entry);
    ns_ += SpanLog::now_ns() - t0;
    ++rows_;
  }
  [[nodiscard]] double mean_us() const {
    return rows_ == 0 ? 0.0 : static_cast<double>(ns_) / 1e3 /
                                  static_cast<double>(rows_);
  }

 protected:
  void on_begin(const wdag::api::BatchStreamInfo& info) override {
    inner_.begin(info);
  }
  void on_end(const wdag::core::BatchReport& report) override {
    inner_.end(report);
  }

 private:
  wdag::api::CsvStreamSink inner_;
  std::int64_t ns_ = 0;
  std::size_t rows_ = 0;
};

// --- set-up ----------------------------------------------------------------

/// Engine plus the seeded input pool, ready to time.
struct Prepared {
  std::unique_ptr<wdag::api::Engine> engine;
  std::vector<std::shared_ptr<const wdag::graph::Digraph>> graphs;
  std::vector<wdag::paths::DipathFamily> families;
  double gen_us = 0.0;  ///< mean microseconds per generated instance
};

wdag::api::BatchRequest slice_request(const BatchSpec& spec,
                                      const Prepared& prep, std::size_t s) {
  wdag::api::BatchRequest req = wdag::api::BatchRequest::of(
      std::span<const wdag::paths::DipathFamily>(prep.families)
          .subspan(s * spec.slice, spec.slice));
  req.options.keep_entries = false;
  if (spec.force_exact) req.force_strategy = "exact";
  return req;
}

Prepared set_up(const BatchSpec& spec, std::uint64_t seed) {
  Prepared prep;
  prep.engine = std::make_unique<wdag::api::Engine>(
      wdag::api::EngineOptions{spec.threads, {}});
  const std::size_t n = spec.slice * spec.slices;
  prep.graphs.reserve(n);
  prep.families.reserve(n);
  const Clock::time_point gen_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    Xoshiro256 rng(item_seed(seed, i));
    Instance inst = spec.make(rng);
    prep.graphs.push_back(std::move(inst.graph));
    prep.families.push_back(std::move(inst.family));
  }
  prep.gen_us = seconds_since(gen_start) * 1e6 / static_cast<double>(n);
  // Untimed warm-up with the timed pass's sinks: pool threads, arenas,
  // the cost model and the allocator reach their steady state here.
  for (std::size_t s = 0; s < spec.warmup; ++s) {
    HashStream hash;
    wdag::api::CsvStreamSink csv(hash.stream());
    wdag::api::BatchRequest req = slice_request(spec, prep, s);
    req.sinks = {&csv};
    (void)prep.engine->run_batch(req);
  }
  return prep;
}

// --- timed pass --------------------------------------------------------------

struct TimedPass {
  std::vector<double> rates;         ///< instances per second, per call
  std::vector<double> halfway_ms;    ///< call start -> half its rows out
  std::vector<double> solve_p99_ms;  ///< BatchReport::latency.p99, per call
  std::vector<std::pair<std::size_t, std::uint64_t>> hashes;  ///< slice, rows
  std::size_t instances = 0;
  double wall_s = 0.0;  ///< summed wall time of the calls
  std::size_t answered = 0;
  std::size_t failures = 0;
  double sink_us = 0.0;  ///< TimedCsvSink rows only

  /// Median over the calls of instances per wall second. A call that
  /// meets a rare instance whose exact certification runs for seconds
  /// reads far below the rest; the median keeps one such call from
  /// setting the run's figure (instances / wall_s is in the notes).
  [[nodiscard]] double throughput() const { return median(rates); }
};

/// Times run_batch over consecutive pool slices for `seconds` (and at
/// least one full call), wrapping around the pool when it runs out.
TimedPass timed_pass(const BatchSpec& spec, Prepared& prep, double seconds,
                     bool timed_sink) {
  TimedPass out;
  std::vector<double> sink_means;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k == 0 || seconds_since(start) < seconds; ++k) {
    const std::size_t s = k % spec.slices;
    HashStream hash;
    std::optional<wdag::api::CsvStreamSink> csv;
    std::optional<TimedCsvSink> timed;
    HalfwaySink halfway(spec.slice);
    wdag::api::BatchRequest req = slice_request(spec, prep, s);
    req.sinks = {timed_sink ? static_cast<wdag::api::ResultSink*>(
                                  &timed.emplace(hash.stream()))
                            : &csv.emplace(hash.stream()),
                 &halfway};
    const Clock::time_point t0 = Clock::now();
    const wdag::core::BatchReport report = prep.engine->run_batch(req);
    const double wall = seconds_since(t0);
    out.rates.push_back(static_cast<double>(report.instance_count) / wall);
    out.halfway_ms.push_back(
        std::chrono::duration<double, std::milli>(halfway.at() - t0).count());
    out.solve_p99_ms.push_back(report.latency.p99);
    out.instances += report.instance_count;
    out.wall_s += wall;
    out.hashes.emplace_back(s, hash.digest());
    out.answered += report.instance_count - report.failure_count;
    out.failures += report.failure_count;
    if (timed_sink) sink_means.push_back(timed->mean_us());
  }
  out.sink_us = median(sink_means);
  return out;
}

// --- check pass --------------------------------------------------------------

/// One checked answer, kept for the traced replay's cross-check.
struct Answer {
  StrategyId strategy = 0;
  std::size_t load = 0;
  std::size_t wavelengths = 0;
  bool optimal = false;
};

struct CheckPass {
  std::vector<Answer> answers;         ///< whole pool, instance order
  std::vector<std::uint64_t> hashes;   ///< per slice
  std::vector<std::size_t> strategy_counts;
  std::size_t optimal = 0;
  std::size_t sum_wavelengths = 0;
  std::size_t sum_load = 0;
};

/// Solves the whole pool again with colorings kept and checks every
/// answer: a valid assignment, wavelengths == colors used, load equal to
/// an independent paths::max_load, w >= pi, and w == pi wherever
/// dag::classify finds no internal cycle (Theorem 1).
CheckPass check_pass(const BatchSpec& spec, Prepared& prep, Outcome& out) {
  CheckPass check;
  check.answers.resize(prep.families.size());
  check.strategy_counts.assign(prep.engine->strategies().size(), 0);
  std::unordered_map<const wdag::graph::Digraph*, bool> theorem1_hosts;
  for (std::size_t s = 0; s < spec.slices; ++s) {
    HashStream hash;
    wdag::api::CsvStreamSink csv(hash.stream());
    wdag::api::BatchRequest req = slice_request(spec, prep, s);
    req.options.keep_entries = true;
    req.options.keep_colorings = true;
    req.sinks = {&csv};
    const wdag::core::BatchReport report = prep.engine->run_batch(req);
    check.hashes.push_back(hash.digest());
    for (const wdag::core::BatchEntry& e : report.entries) {
      const std::size_t i = s * spec.slice + e.index;
      const wdag::paths::DipathFamily& family = prep.families[i];
      const std::string where = "instance " + std::to_string(i) + ": ";
      if (e.failed) {
        out.fail(1, where + "solve failed: " + e.error);
        continue;
      }
      const auto [it, fresh] = theorem1_hosts.try_emplace(&family.graph());
      if (fresh) {
        it->second = wdag::dag::classify(family.graph()).wavelengths_equal_load();
      }
      std::string bad;
      if (!wdag::conflict::is_valid_assignment(family, e.coloring)) {
        bad = "invalid wavelength assignment";
      } else if (wdag::conflict::num_colors(e.coloring) != e.wavelengths) {
        bad = "wavelengths differ from the colors used";
      } else if (wdag::paths::max_load(family) != e.load) {
        bad = "reported load differs from paths::max_load";
      } else if (e.wavelengths < e.load) {
        bad = "w < pi";
      } else if (it->second && e.wavelengths != e.load) {
        bad = "w != pi on a host without internal cycle (Theorem 1)";
      }
      if (!bad.empty()) {
        out.fail(1, where + bad);
        continue;
      }
      check.answers[i] = {e.strategy, e.load, e.wavelengths, e.optimal};
      ++check.strategy_counts[e.strategy];
      check.optimal += e.optimal ? 1 : 0;
      check.sum_wavelengths += e.wavelengths;
      check.sum_load += e.load;
    }
  }
  return check;
}

/// Every timed call's CSV rows must hash equal to the checked rows of
/// the same slice (rows are a function of the inputs only).
void compare_hashes(const BatchSpec& spec, const TimedPass& timed,
                    const CheckPass& check, Outcome& out) {
  for (const auto& [slice, digest] : timed.hashes) {
    if (digest != check.hashes[slice]) {
      out.fail(spec.slice, "slice " + std::to_string(slice) +
                               ": timed rows differ from the checked rows");
    }
  }
}

// --- traced replay -------------------------------------------------------------

/// Deterministic counts of one replay pass.
struct ReplayCounts {
  std::vector<std::size_t> final_strategy;  ///< after certification
  std::size_t split_merge_levels = 0;
  std::size_t split_merge_fixups = 0;
  std::size_t chain_recolorings = 0;
  std::size_t builds = 0;
  std::size_t edges = 0;
  std::size_t exact_calls = 0;
  std::size_t exact_proven = 0;
  std::size_t exact_nodes = 0;
};

/// Replays api::solve_with's pipeline for one instance through the
/// public layer functions, one span per call: classify, dispatch, the
/// strategy's solve, max_load when the strategy has no load, exact
/// certification when the answer is not yet optimal, validation when
/// the strategy does not validate itself.
Answer replay(const wdag::api::StrategyRegistry& registry,
              const wdag::paths::DipathFamily& family,
              const wdag::core::SolveOptions& options,
              std::optional<StrategyId> force,
              wdag::core::SolveScratch& scratch, SpanLog& log,
              std::uint64_t id, ReplayCounts& counts) {
  namespace core = wdag::core;
  namespace conflict = wdag::conflict;
  const Scoped root(log, "replay", -1, id);
  const std::int64_t parent = root.index();
  wdag::dag::DagReport report;
  {
    const Scoped s(log, "dag.classify", parent, id);
    report = wdag::dag::classify(family.graph());
  }
  StrategyId chosen = 0;
  if (force.has_value()) {
    chosen = *force;
  } else {
    const Scoped s(log, "core.dispatch", parent, id);
    chosen = registry.dispatch(report);
  }
  const bool preverified = !force.has_value();
  auto build = [&](std::int64_t under) -> const conflict::ConflictGraph& {
    const Scoped s(log, "conflict.build", under, id);
    scratch.conflict_graph.rebuild(family);
    ++counts.builds;
    counts.edges += scratch.conflict_graph.num_edges();
    return scratch.conflict_graph;
  };
  auto exact = [&](std::int64_t under) {
    const conflict::ConflictGraph& cg = build(under);
    const Scoped s(log, "conflict.exact", under, id);
    conflict::ChromaticResult r =
        conflict::chromatic_number(cg, options.exact_node_budget);
    ++counts.exact_calls;
    counts.exact_proven += r.proven ? 1 : 0;
    counts.exact_nodes += r.nodes;
    return r;
  };

  Answer a;
  a.strategy = chosen;
  conflict::Coloring coloring;
  std::optional<std::size_t> load;
  bool validated = true;
  switch (chosen) {
    case core::kStrategyTheorem1: {
      const Scoped s(log, "core.theorem1", parent, id);
      core::Theorem1Result r = core::color_equal_load(family, preverified);
      counts.chain_recolorings += r.chain_recolorings;
      coloring = std::move(r.coloring);
      a.wavelengths = r.wavelengths;
      load = r.load;
      a.optimal = true;
      break;
    }
    case core::kStrategySplitMerge: {
      const Scoped s(log, "core.split_merge", parent, id);
      core::SplitMergeResult r =
          core::color_upp_split_merge(family, preverified);
      counts.split_merge_levels += r.levels;
      counts.split_merge_fixups += r.fixups;
      coloring = std::move(r.coloring);
      a.wavelengths = r.wavelengths;
      load = r.load;
      break;
    }
    case core::kStrategyDsatur: {
      const conflict::ConflictGraph& cg = build(parent);
      const Scoped s(log, "conflict.dsatur", parent, id);
      coloring = conflict::dsatur_coloring(cg);
      a.wavelengths = conflict::normalize_colors(coloring);
      validated = false;
      break;
    }
    default: {  // exact (forced)
      conflict::ChromaticResult r = exact(parent);
      coloring = std::move(r.coloring);
      a.wavelengths = r.chromatic_number;
      a.optimal = r.proven;
      break;
    }
  }
  if (load.has_value()) {
    a.load = *load;
  } else {
    const Scoped s(log, "paths.max_load", parent, id);
    a.load = wdag::paths::max_load(family);
  }
  a.optimal = a.optimal || a.wavelengths == a.load;
  if (!a.optimal && options.exact_threshold > 0 &&
      family.size() <= options.exact_threshold &&
      chosen != core::kStrategyExact) {
    const Scoped cert(log, "certify", parent, id);
    conflict::ChromaticResult r = exact(cert.index());
    if (r.proven && r.chromatic_number <= a.wavelengths) {
      coloring = std::move(r.coloring);
      a.wavelengths = r.chromatic_number;
      a.strategy = core::kStrategyExact;
      a.optimal = true;
      validated = true;
    }
  }
  if (!validated) {
    const Scoped s(log, "conflict.validate", parent, id);
    if (!conflict::is_valid_assignment(family, coloring) ||
        conflict::num_colors(coloring) != a.wavelengths) {
      a.wavelengths = 0;  // surfaces as a cross-check mismatch
    }
  }
  ++counts.final_strategy[a.strategy];
  return a;
}

/// Sweeps 16 MB of unrelated data through the per-core caches, so both
/// replay passes start from the same cache state.
void evict_caches() {
  static std::vector<unsigned char> junk(std::size_t{16} << 20);
  for (std::size_t i = 0; i < junk.size(); i += 64) junk[i] += 1;
}

// --- metrics -------------------------------------------------------------------

void end_to_end(const BatchSpec& spec, const TimedPass& timed,
                const CheckPass& check, double setup_s, Outcome& out) {
  const std::size_t answered = std::accumulate(
      check.strategy_counts.begin(), check.strategy_counts.end(),
      std::size_t{0});
  out.add("throughput_ips", timed.throughput());
  out.add("request_p50_ms", median(timed.halfway_ms));
  out.add("request_p99_ms", median(timed.solve_p99_ms));  // table only
  out.add("proven_share",
          answered == 0 ? 0.0
                        : static_cast<double>(check.optimal) /
                              static_cast<double>(answered));
  out.add("wavelength_load_ratio",
          check.sum_load == 0 ? 0.0
                              : static_cast<double>(check.sum_wavelengths) /
                                    static_cast<double>(check.sum_load));
  out.add("setup_s", setup_s);
  out.add("peak_rss_mb", peak_rss_mb());
  out.notes.push_back(
      std::string(spec.name) + ": " + std::to_string(spec.threads) +
      " engine thread(s), " + std::to_string(timed.rates.size()) +
      " timed run_batch calls of " + std::to_string(spec.slice) +
      " instances over a pool of " +
      std::to_string(spec.slice * spec.slices) + " distinct instances: " +
      std::to_string(timed.instances) + " instances in " +
      std::to_string(timed.wall_s) + " s of calls");
  std::string mix = "answers by strategy (checked pool):";
  const auto names = wdag::core::builtin_strategy_names();
  for (std::size_t id = 0; id < check.strategy_counts.size(); ++id) {
    mix += " " + (id < names.size() ? names[id] : std::to_string(id)) + "=" +
           std::to_string(check.strategy_counts[id]);
  }
  out.notes.push_back(mix);
}

void per_layer(const BatchSpec& spec, const Args& args, Prepared& prep,
               const TimedPass& untraced, const CheckPass& check,
               Outcome& out) {
  const std::size_t n = std::min(spec.replay, prep.families.size());
  const wdag::api::StrategyRegistry& registry = prep.engine->strategies();
  const wdag::core::SolveOptions options;
  const std::optional<StrategyId> force =
      spec.force_exact ? registry.find("exact") : std::nullopt;
  wdag::core::SolveScratch scratch;

  // Rounds of two passes, stages then solve_with, each pass after the
  // same cache sweep, and after a full pass over the same inputs (the
  // check pass before the first). Up to three rounds while they take
  // less than half the run budget; counts come from the first.
  constexpr int kRounds = 3;
  SpanLog stages(n * 12 * kRounds);
  SpanLog solves(n * kRounds);
  ReplayCounts counts;
  counts.final_strategy.assign(registry.size(), 0);
  std::vector<double> solve_us;
  const Clock::time_point replay_start = Clock::now();
  for (int round = 0; round < kRounds &&
                      (round == 0 || seconds_since(replay_start) < args.seconds / 2);
       ++round) {
    ReplayCounts round_counts;
    round_counts.final_strategy.assign(registry.size(), 0);
    evict_caches();
    for (std::size_t i = 0; i < n; ++i) {
      const Answer a = replay(registry, prep.families[i], options, force,
                              scratch, stages, i, round_counts);
      const Answer& c = check.answers[i];
      if (round == 0 && (a.strategy != c.strategy || a.load != c.load ||
                         a.wavelengths != c.wavelengths ||
                         a.optimal != c.optimal)) {
        out.fail(1, "instance " + std::to_string(i) +
                        ": the traced replay disagrees with api::solve_with");
      }
    }
    if (round == 0) counts = std::move(round_counts);
    evict_caches();
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t t0 = SpanLog::now_ns();
      const wdag::api::SolveResponse r = wdag::api::solve_with(
          registry, prep.families[i], options, force, &scratch);
      const std::int64_t t1 = SpanLog::now_ns();
      solves.add("api.solve_with", t0, t1, -1, i);
      solve_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (round == 0 && r.wavelengths != check.answers[i].wavelengths) {
        out.fail(1, "instance " + std::to_string(i) +
                        ": solve_with answer changed between passes");
      }
    }
  }

  const double solve_total = solves.total("api.solve_with").total_us;
  const SpanLog::Total root = stages.total("replay");
  const double staged = root.total_us - root.self_us;
  auto stage = [&](const char* name, const char* us_metric,
                   const char* share_metric) {
    const SpanLog::Total t = stages.total(name);
    out.add(us_metric, t.calls == 0 ? 0.0 : t.total_us / t.calls);
    if (share_metric != nullptr) {
      out.add(share_metric, solve_total > 0 ? t.self_us / solve_total : 0.0);
    }
  };
  auto share = [&](std::size_t part, std::size_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };

  out.add("gen.instance_us", prep.gen_us);
  stage("dag.classify", "dag.classify_us", "dag.classify_share");
  stage("core.split_merge", "core.split_merge_us", "core.split_merge_share");
  out.add("core.split_merge.levels",
          static_cast<double>(counts.split_merge_levels));
  out.add("core.split_merge.fixups",
          static_cast<double>(counts.split_merge_fixups));
  stage("core.theorem1", "core.theorem1_us", nullptr);
  out.add("core.theorem1.chain_recolorings",
          static_cast<double>(counts.chain_recolorings));
  const char* dispatch_names[] = {
      "core.dispatch.theorem1_share", "core.dispatch.split_merge_share",
      "core.dispatch.dsatur_share", "core.dispatch.exact_share"};
  for (std::size_t id = 0; id < 4; ++id) {
    out.add(dispatch_names[id], share(counts.final_strategy[id], n));
  }
  const double untraced_ips = untraced.throughput();
  // Mean one-thread solve_with time x untimed throughput / threads: 1.0
  // when the engine's threads spend all their time in solve_with.
  const double solve_mean_s =
      solve_total * 1e-6 / static_cast<double>(solve_us.size());
  out.add("core.batch.efficiency",
          solve_mean_s * untraced_ips / static_cast<double>(spec.threads));
  stage("conflict.build", "conflict.build_us", nullptr);
  out.add("conflict.edges",
          counts.builds == 0 ? 0.0
                             : static_cast<double>(counts.edges) /
                                   static_cast<double>(counts.builds));
  stage("conflict.dsatur", "conflict.dsatur_us", "conflict.dsatur_share");
  stage("conflict.exact", "conflict.exact_us", "conflict.exact_share");
  out.add("conflict.exact_nodes", static_cast<double>(counts.exact_nodes));
  out.add("conflict.exact_proven_share",
          share(counts.exact_proven, counts.exact_calls));
  stage("conflict.validate", "conflict.validate_us", nullptr);
  stage("paths.max_load", "paths.max_load_us", nullptr);
  out.add("api.solve_p50_us", percentile(solve_us, 0.50));
  out.add("api.solve_p99_us", percentile(solve_us, 0.99));
  out.add("api.self_share",
          solve_total > 0 ? (solve_total - staged) / solve_total : 0.0);
  out.notes.push_back(
      "replayed " + std::to_string(n) + " instances on one thread, " +
      std::to_string(solve_us.size() / n) + " rounds: solve_with " +
      std::to_string(solve_total / 1e3) + " ms, stages " +
      std::to_string(staged / 1e3) + " ms");

  const std::string base = args.work_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed);
  if (!stages.write_csv(base + "-stages.csv") ||
      !solves.write_csv(base + "-solve_with.csv")) {
    out.notes.push_back("could not write spans under " + args.work_dir);
  }
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Outcome run_batch_workload(const Args& args) {
  const BatchSpec& spec = *find_spec(args.workload);
  Outcome out;

  std::vector<double> setups;
  Prepared prep;
  // Set-ups stop early once they have taken 3 s: a pool can hold an
  // instance whose exact certification runs to the node budget (upp-mix
  // seed 307, instance 4046: 17.7 s), and the warm-up may solve it.
  const Clock::time_point setup_start = Clock::now();
  for (std::size_t r = 0;
       r < spec.setups && (r == 0 || seconds_since(setup_start) < 3.0); ++r) {
    prep = Prepared{};  // release the previous pool before building anew
    const Clock::time_point t0 = Clock::now();
    prep = set_up(spec, args.seed);
    setups.push_back(seconds_since(t0));
  }

  // Untraced runs spend the whole budget timing; traced runs split it
  // between the untraced reference and the run with the timed sink.
  const TimedPass timed =
      timed_pass(spec, prep, args.seconds * (args.trace ? 0.5 : 1.0), false);
  const CheckPass check = check_pass(spec, prep, out);
  compare_hashes(spec, timed, check, out);
  out.attempted = timed.answered + timed.failures;
  out.failed += timed.failures;
  if (!args.trace) {
    end_to_end(spec, timed, check, median(setups), out);
    return out;
  }

  const TimedPass traced = timed_pass(spec, prep, args.seconds * 0.25, true);
  compare_hashes(spec, traced, check, out);
  out.attempted += traced.answered + traced.failures;
  out.failed += traced.failures;
  per_layer(spec, args, prep, timed, check, out);
  out.add("request_p99_ms", median(timed.solve_p99_ms));
  // A batch offers every instance at once: the highest rate it sustains
  // is its throughput.
  const double untraced_ips = timed.throughput();
  out.add("max_rate_rps", untraced_ips);
  out.add("api.sink_us", traced.sink_us);
  out.add("trace.overhead_share",
          untraced_ips > 0 ? 1.0 - traced.throughput() / untraced_ips : 0.0);
  return out;
}

}  // namespace perfbench
