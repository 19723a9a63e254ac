// The wdag command-line driver — a thin shell over the public API
// (wdag/wdag.hpp): every command builds requests for an api::Engine.
//
//   wdag solve  — build (or load) one instance, solve it, print the verdict
//   wdag batch  — fan a generated workload out over the engine's pool and
//                 report the dispatch histogram, latency percentiles and
//                 throughput; optionally stream per-instance CSV / JSON
//   wdag sweep  — run a batch per point of a parameter range and print one
//                 summary row per point
//   wdag shard  — plan/run/merge a batch split across machines: `plan`
//                 writes K JSON shard manifests, `run` executes one
//                 manifest into a shard CSV (or JSON-lines), `merge`
//                 validates the shard set and reassembles it to the exact
//                 bytes of the unsharded --stream-csv run
//   wdag drive  — execute a whole shard plan through a pool of attempt
//                 slots (local worker subprocesses and/or remote `wdag
//                 worker` endpoints) with per-shard timeout, bounded
//                 retry + backoff, speculative re-execution of
//                 stragglers, health-probed remote workers, and a
//                 streaming validated merge
//   wdag worker — long-lived remote executor of drive attempts: accepts
//                 a shard manifest as one JSON line over TCP, runs it
//                 through the embedded engine, validates the output and
//                 streams it back length-prefixed with an FNV-1a
//                 checksum; answers health pings while shards run
//   wdag serve  — persistent solve service on TCP: newline-delimited JSON
//                 requests through a bounded admission queue (overload
//                 rejects, never buffers) into one warm engine, with
//                 per-request deadlines, a live /stats endpoint and
//                 graceful SIGINT/SIGTERM drain
//   wdag request — client for wdag serve: send one request (from flags
//                 or a file), print the response line, exit 0/3/4 for
//                 ok/rejected/error
//
// Every generated workload is a deterministic function of --seed: the batch
// engine seeds each instance from (seed, GLOBAL index), so identical seeds
// give identical CSV output no matter how many threads run the batch, how
// the range is cut into chunks (--chunk), or how many shards the index
// range was split into.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "wdag/wdag.hpp"

#include "core/transport.hpp"  // internal: drive endpoint parsing
#include "remote/worker.hpp"   // internal: the `wdag worker` process

namespace {

using wdag::core::BatchOptions;
using wdag::core::BatchReport;
using wdag::core::SolveOptions;
using wdag::util::Cli;

int usage(std::ostream& os) {
  os << "wdag — wavelength assignment on DAGs (Bermond & Cosnard)\n"
        "\n"
        "usage:\n"
        "  wdag solve --gen NAME [generator flags] [solver flags]\n"
        "  wdag solve --file INSTANCE.txt [solver flags]\n"
        "  wdag batch --gen NAME --count N [--threads T] [--seed S]\n"
        "             [--csv PATH|-] [--json PATH|-] [--rows]\n"
        "  wdag sweep --gen NAME --count N --param NAME --from A --to B\n"
        "             [--step S] [--threads T] [--seed S]\n"
        "  wdag shard plan --gen NAME --count N --shards K --out PREFIX\n"
        "             [--layout L] [--seed S] [generator flags] [solver flags]\n"
        "  wdag shard run --manifest FILE.json --out PATH|- [--threads T]\n"
        "             [--chunk C] [--json PATH] [--quiet]\n"
        "  wdag shard merge --out PATH|- SHARD.csv [SHARD.csv ...]\n"
        "  wdag drive --gen NAME --count N --shards K --work-dir DIR\n"
        "             [--layout L] [--workers W|HOST:PORT,...]\n"
        "             [--max-retries R] [--timeout SEC] [--backoff SEC]\n"
        "             [--speculate F] [--fail-fast N] [--resume]\n"
        "             [--events PATH] [--progress] [--out PATH|-]\n"
        "             [--connect-timeout-ms MS] [--probe-interval SEC]\n"
        "             [--probe-timeout-ms MS] [--probe-miss-budget N]\n"
        "  wdag worker [--host H] [--port P] [--threads T]\n"
        "             [--idle-timeout-ms MS] [--port-file PATH]\n"
        "  wdag serve [--host H] [--port P] [--queue N] [--deadline-ms D]\n"
        "             [--threads T] [--port-file PATH]\n"
        "             [--max-connections N] [--idle-timeout-ms MS]\n"
        "             [solver flags]\n"
        "  wdag request --port P [--host H] [--type T] [--id ID]\n"
        "             [--gen NAME ...] [--count N] [--deadline-ms D]\n"
        "             [--req-file FILE] [--timeout-ms MS] [solver flags]\n"
        "  wdag --version\n"
        "\n"
        "generators (--gen):\n"
        "  random-upp   mixed random UPP workload: trees, one- and\n"
        "               multi-cycle skeletons, odd-cycle gadgets\n"
        "               (--k, --run-len, --chain, --paths, --size)\n"
        "  random-dag   random DAG + random walks (--size, --density, --paths)\n"
        "  no-internal  random DAG repaired to zero internal cycles\n"
        "               (--size, --density, --paths)\n"
        "  layered      layered DAG + random walks (--layers, --width-l,\n"
        "               --density, --paths)\n"
        "  tree         random out-tree + random requests (--size, --paths)\n"
        "  grid         rows x cols grid + random requests (--rows-g, --cols,\n"
        "               --paths)\n"
        "  butterfly    k-dimensional butterfly + random requests (--dim,\n"
        "               --paths)\n"
        "  fat-chain    stage chain with fiber bundles + random walks\n"
        "               (--stages, --width-l, --paths)\n"
        "  spine        spine with leaves + random requests (--size, --paths)\n"
        "  odd-cycle    Theorem 2 gadget, conflict graph C_{2k+1} (--k)\n"
        "  c5 | c7      odd-cycle with k=2 / k=3\n"
        "  figure1      Figure 1 pathological family (--k)\n"
        "  figure3      Figure 3 instance (pi=2, w=3)\n"
        "  havet        Theorem 7 / Wagner-graph instance (--h replication)\n"
        "\n"
        "solver flags:\n"
        "  --exact-threshold N   exact certification cutoff (default 48)\n"
        "  --exact-budget N      exact solver node budget\n"
        "  --force NAME          registered strategy name: theorem1 |\n"
        "                        split-merge | dsatur | exact\n"
        "\n"
        "solve flags:\n"
        "  --file PATH    solve an instance file instead of --gen\n"
        "  --show-coloring    print the wavelength of every path\n"
        "  --dump         print the solved instance in instance-text form\n"
        "  solve --json PATH    also write the verdict as one JSON line\n"
        "                 ('-' = stdout) — the same object a served solve\n"
        "                 request returns, for field-level comparison\n"
        "\n"
        "batch flags:\n"
        "  --count N      instances in the batch (default 100)\n"
        "  --threads T    worker threads; 0 = hardware concurrency\n"
        "                 (default 0, negatives rejected)\n"
        "  --chunk C      instances per chunk, pinned; 0 = sized by the\n"
        "                 cost model from observed solve costs (default 0;\n"
        "                 seeding is per instance, so this never changes\n"
        "                 results)\n"
        "  --schedule S, --min-chunk A, --max-chunk B\n"
        "                 deprecated, no effect (there is one schedule and\n"
        "                 --chunk pins its size): each prints one warning on\n"
        "                 stderr; removed in 0.5.0\n"
        "  --seed S       base seed (default 1)\n"
        "  --csv PATH     write per-instance rows as CSV ('-' = stdout);\n"
        "                 deterministic for a fixed seed\n"
        "  --stream-csv PATH   stream the same CSV as chunks finish, at\n"
        "                 near-constant memory (million-instance sweeps);\n"
        "                 byte-identical to --csv for a fixed seed\n"
        "  --json PATH    write the aggregate report as JSON ('-' = stdout)\n"
        "  --rows         also print the per-instance table to stdout\n"
        "  --keep-colorings    retain every instance's coloring in memory\n"
        "                 (incompatible with --stream-csv)\n"
        "\n"
        "sweep flags:\n"
        "  --param NAME   paths | size | density | k (generator knob to vary)\n"
        "  --from A --to B --step S   inclusive range of the parameter\n"
        "\n"
        "shard flags:\n"
        "  --shards K     shards to split the index range into (plan/drive;\n"
        "                 every shard must get >= 1 instance)\n"
        "  --layout L     contiguous | striped (default contiguous): how the\n"
        "                 plan distributes global indices — one balanced\n"
        "                 range per shard, or round-robin striping that\n"
        "                 spreads an index-correlated cost tail evenly\n"
        "  --out P        plan: manifest path prefix, writes PREFIX.<i>.json;\n"
        "                 run/merge/drive: output CSV path ('-' = stdout)\n"
        "  --manifest F   the shard manifest to execute (run); the workload,\n"
        "                 seed and index range come from the manifest —\n"
        "                 only execution knobs (--threads, --chunk, ...)\n"
        "                 are read from the command line\n"
        "  --quiet        suppress the shard run summary line on stdout\n"
        "                 (the drive workers pass this)\n"
        "  merge accepts shard CSVs or shard JSON-lines files (shard run\n"
        "  --json); the format is detected from the file contents and the\n"
        "  merged output matches it\n"
        "\n"
        "drive flags:\n"
        "  --work-dir D   scratch directory for manifests and per-attempt\n"
        "                 shard outputs (created if missing; required)\n"
        "  --workers SPEC comma list mixing an integer (local subprocess\n"
        "                 slots) and HOST:PORT endpoints of remote `wdag\n"
        "                 worker` processes, e.g. '4', 'h1:9100,h2:9100'\n"
        "                 or '2,h1:9100'. Default 0 local = min(shards,\n"
        "                 hardware threads) when no remotes are given;\n"
        "                 with remotes, 0 local means remote-only (the\n"
        "                 drive degrades back to local slots if EVERY\n"
        "                 remote goes unhealthy)\n"
        "  --connect-timeout-ms MS   dial timeout of every remote attempt\n"
        "                 (default 1000)\n"
        "  --probe-interval SEC   seconds between health pings of each\n"
        "                 remote worker (default 2)\n"
        "  --probe-timeout-ms MS   per-ping timeout (default 500)\n"
        "  --probe-miss-budget N   consecutive missed pings before a\n"
        "                 remote worker leaves rotation; its in-flight\n"
        "                 attempts re-dispatch elsewhere without burning\n"
        "                 retry budget, and a later successful ping\n"
        "                 returns it (default 3)\n"
        "  --max-retries R   retries per shard after its first attempt\n"
        "                 (default 2); exceeding R fails the drive\n"
        "  --timeout SEC  per-attempt timeout; a late worker is killed and\n"
        "                 retried (default 0 = off)\n"
        "  --backoff SEC  base retry backoff, doubled per consecutive\n"
        "                 failure of the same shard (default 0.25)\n"
        "  --speculate F  re-execute a shard still running after F x the\n"
        "                 median completed-shard time; the first validated\n"
        "                 result wins (default 0 = off)\n"
        "  --fail-fast N  abort after N consecutive failed attempts spanning\n"
        "                 distinct shards — a systemic fault, not one bad\n"
        "                 shard (default 8, 0 = off)\n"
        "  --resume       reuse the validated shard outputs journaled in\n"
        "                 --work-dir by a crashed or interrupted drive of\n"
        "                 the SAME plan: each journaled output is\n"
        "                 re-validated, verified shards are skipped, only\n"
        "                 the remainder runs; merged bytes stay identical\n"
        "                 to an uninterrupted run\n"
        "  --events PATH  append one JSON line per lifecycle event\n"
        "                 (dispatch/exit/timeout/retry/speculate/complete/\n"
        "                 resume/quarantine/interrupt/done) to PATH\n"
        "                 ('-' = stderr); opened in append mode, flushed\n"
        "                 per line\n"
        "  --progress     print the per-shard attempts/retries/timing table\n"
        "                 after the drive\n"
        "  --keep-work    keep the manifests, committed shard files and the\n"
        "                 journal in --work-dir after a successful drive\n"
        "  --wdag-bin P   worker binary to execute (default: this binary)\n"
        "\n"
        "worker flags (a long-lived remote executor of drive attempts;\n"
        "shares --host/--port/--port-file/--threads semantics):\n"
        "  --idle-timeout-ms MS   close a session after MS without a\n"
        "                 complete request line (worker and serve;\n"
        "                 default 0 = never)\n"
        "\n"
        "serve flags:\n"
        "  --max-connections N   live session cap; a connection accepted\n"
        "                 at the cap is answered 'rejected:\n"
        "                 max_connections' and closed (default 0 = off)\n"
        "  --host H       listen / connect address (default 127.0.0.1)\n"
        "  --port P       TCP port; serve: 0 picks an ephemeral port\n"
        "                 (default 0), request: required\n"
        "  --queue N      admission queue capacity (default 64); a full\n"
        "                 queue answers 'rejected: queue_full' immediately\n"
        "                 instead of buffering without bound\n"
        "  --deadline-ms D   serve: default deadline for requests that\n"
        "                 carry none; request: this request's deadline.\n"
        "                 A request whose deadline expires while queued is\n"
        "                 answered 'rejected: deadline' without solving\n"
        "                 (default 0 = none)\n"
        "  --port-file PATH   write the bound port to PATH once listening\n"
        "                 (scripts wait for the file, then connect)\n"
        "\n"
        "request flags:\n"
        "  --type T       solve | batch | stats (default solve)\n"
        "  --id ID        client tag echoed in the response\n"
        "  --req-file F   send the first line of F verbatim instead of\n"
        "                 building the request from the flags\n"
        "  --timeout-ms MS   give up when no response arrives within MS\n"
        "                 (default 30000)\n"
        "\n"
        "global flags:\n"
        "  --help         print this help and exit 0\n"
        "  --version      print 'wdag VERSION (build-type, arch)' and exit\n"
        "\n"
        "environment:\n"
        "  WDAG_AFFINITY  pin pool workers to CPUs (Linux): 'on' pins\n"
        "                 worker i to cpu i, a comma list '0,2,4' cycles\n"
        "                 through those CPUs; unset/'off' leaves the OS free\n"
        "  WDAG_SERVE_TEST_HOOKS   when set, wdag serve also honors 'sleep'\n"
        "                 requests that occupy the worker for a fixed time\n"
        "                 (deterministic backpressure in tests)\n"
        "  WDAG_WORKER_FAIL_SHARD / WDAG_WORKER_DROP_CONN /\n"
        "  WDAG_WORKER_CORRUPT_PAYLOAD / WDAG_WORKER_SLOW_HEARTBEAT /\n"
        "  WDAG_WORKER_STALL_MS   one-shot fault hooks of wdag worker\n"
        "                 (fail a shard, drop the connection mid-payload,\n"
        "                 corrupt the payload after checksumming, delay\n"
        "                 'count:ms' heartbeats, stall the first request)\n"
        "                 — the remote-drive fault-injection test rig\n";
  return 2;
}

/// Everything solve/batch/sweep read from the command line, parsed once —
/// one code path for generator knobs, solver knobs and batch knobs.
struct CommonArgs {
  wdag::GeneratorSpec gen;                ///< --gen + knobs + --seed
  SolveOptions solve;                     ///< --exact-threshold/--exact-budget
  BatchOptions batch;                     ///< --threads/--chunk/--seed/...
  std::optional<std::string> force;       ///< --force strategy name
  std::size_t count = 0;                  ///< --count
  std::string stream_csv;                 ///< --stream-csv path; empty = off
};

CommonArgs read_common_args(const Cli& cli, std::size_t default_count) {
  CommonArgs a;

  a.gen.family = cli.get("gen", "");
  a.gen.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto& p = a.gen.params;
  p.paths = static_cast<std::size_t>(cli.get_int("paths", 32));
  p.size = static_cast<std::size_t>(cli.get_int("size", 24));
  p.density = cli.get_double("density", 0.2);
  p.k = static_cast<std::size_t>(cli.get_int("k", 3));
  p.run_len = static_cast<std::size_t>(cli.get_int("run-len", 1));
  p.chain = static_cast<std::size_t>(cli.get_int("chain", 1));
  p.layers = static_cast<std::size_t>(cli.get_int("layers", 5));
  p.width = static_cast<std::size_t>(cli.get_int("width-l", 4));
  p.rows = static_cast<std::size_t>(cli.get_int("rows-g", 4));
  p.cols = static_cast<std::size_t>(cli.get_int("cols", 6));
  p.dim = static_cast<std::size_t>(cli.get_int("dim", 3));
  p.stages = static_cast<std::size_t>(cli.get_int("stages", 4));
  p.h = static_cast<std::size_t>(cli.get_int("h", 2));

  a.solve.exact_threshold =
      static_cast<std::size_t>(cli.get_int("exact-threshold", 48));
  a.solve.exact_node_budget =
      static_cast<std::size_t>(cli.get_int("exact-budget", 20'000'000));
  if (cli.has("force")) a.force = cli.get("force", "");

  // --threads 0 means hardware concurrency (the ThreadPool contract);
  // reject negatives instead of letting the size_t cast wrap them into
  // an absurd worker count.
  const std::int64_t threads = cli.get_int("threads", 0);
  WDAG_REQUIRE(threads >= 0,
               "--threads must be >= 0 (0 = hardware concurrency), got " +
                   std::to_string(threads));
  a.batch.threads = static_cast<std::size_t>(threads);
  const std::int64_t chunk = cli.get_int("chunk", 0);
  WDAG_REQUIRE(chunk >= 0, "--chunk must be >= 0 (0 = sized by the cost "
                           "model), got " + std::to_string(chunk));
  a.batch.chunk = static_cast<std::size_t>(chunk);
  a.batch.seed = a.gen.seed;
  a.batch.keep_colorings = cli.has("keep-colorings");
  if (cli.has("stream-csv")) {
    // Streaming exists for constant-memory sweeps; holding every coloring
    // contradicts it, so reject the combination instead of silently
    // preferring one flag.
    WDAG_REQUIRE(!a.batch.keep_colorings,
                 "--stream-csv and --keep-colorings conflict: streaming "
                 "runs at constant memory, keeping colorings does not");
    a.stream_csv = cli.get("stream-csv", "-");
    // Do not also hold the per-instance entries unless another flag
    // needs them.
    a.batch.keep_entries = cli.has("rows") || cli.has("csv");
  }

  a.count = static_cast<std::size_t>(cli.get_int("count",
      static_cast<std::int64_t>(default_count)));
  return a;
}

/// Writes `text` to the path, with '-' meaning stdout.
void write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream out(path);
  WDAG_REQUIRE(out.good(), "cannot open output file '" + path + "'");
  out << text;
}

/// An engine configured from the parsed flags (pool size, solver knobs).
wdag::Engine make_engine(const CommonArgs& args, std::size_t threads) {
  wdag::EngineOptions options;
  options.threads = threads;
  options.solve = args.solve;
  return wdag::Engine(options);
}

int cmd_solve(const Cli& cli) {
  const CommonArgs args = read_common_args(cli, 100);
  // One instance solves on the calling thread; no pool needed.
  wdag::Engine engine = make_engine(args, 1);

  // Materialize the instance here (rather than via SolveRequest::from_file
  // / ::generated) so --dump can render exactly what was solved.
  std::shared_ptr<const wdag::graph::Digraph> graph;  // keeps the host alive
  wdag::paths::DipathFamily family;
  if (cli.has("file")) {
    const std::string path = cli.get("file", "");
    std::ifstream in(path);
    WDAG_REQUIRE(in.good(), "cannot open instance file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = wdag::paths::parse_instance_text(buf.str());
    graph = parsed.graph;
    family = std::move(parsed.family);
  } else {
    wdag::util::Xoshiro256 rng(args.gen.seed);
    auto inst =
        wdag::gen::workload_instance(args.gen.family, args.gen.params, rng);
    graph = inst.graph;
    family = std::move(inst.family);
  }

  wdag::SolveRequest request = wdag::SolveRequest::of(family);
  request.force_strategy = args.force;

  const wdag::SolveResponse response = engine.submit(request);
  std::cout << wdag::dag::report_to_string(response.report) << "\n";
  wdag::util::Table verdict("solve verdict",
                            {"method", "paths", "load", "wavelengths",
                             "optimal"});
  verdict.add_row({response.strategy_name,
                   static_cast<long long>(response.paths),
                   static_cast<long long>(response.load),
                   static_cast<long long>(response.wavelengths),
                   static_cast<long long>(response.optimal ? 1 : 0)});
  std::cout << verdict;
  if (cli.has("show-coloring")) {
    std::cout << "coloring:";
    for (const auto c : response.coloring) std::cout << ' ' << c;
    std::cout << "\n";
  }
  if (cli.has("dump")) {
    std::cout << wdag::paths::to_instance_text(family);
  }
  if (cli.has("json")) {
    // The serve wire object, so `wdag solve --json` output is
    // field-comparable with a served solve of the same flags + seed.
    write_output(cli.get("json", "-"),
                 wdag::serve::solve_response_json("", response) + "\n");
  }
  return 0;
}

int cmd_batch(const Cli& cli) {
  const CommonArgs args = read_common_args(cli, 100);
  WDAG_REQUIRE(!args.gen.family.empty(), "batch requires --gen NAME");
  wdag::Engine engine = make_engine(args, args.batch.threads);

  wdag::BatchRequest request;
  request.generator = args.gen;
  request.count = args.count;
  request.options = args.batch;
  request.force_strategy = args.force;

  // --stream-csv: a CsvStreamSink on the request — rows reach the file in
  // strict instance order as chunks finish, at near-constant memory.
  std::ofstream stream_file;
  std::optional<wdag::CsvStreamSink> stream_sink;
  if (!args.stream_csv.empty()) {
    std::ostream* stream_out = &std::cout;
    if (args.stream_csv != "-") {
      stream_file.open(args.stream_csv);
      WDAG_REQUIRE(stream_file.good(),
                   "cannot open output file '" + args.stream_csv + "'");
      stream_out = &stream_file;
    }
    stream_sink.emplace(*stream_out);
    request.sinks.push_back(&*stream_sink);
  }

  const BatchReport report = engine.run_batch(request);

  if (cli.has("rows")) std::cout << report.rows_table();
  std::cout << report.histogram_table();
  wdag::util::Table summary(
      "batch summary",
      {"instances", "failures", "optimal", "wall_s", "inst_per_s", "p50_ms",
       "p99_ms"});
  summary.add_row({static_cast<long long>(report.instance_count),
                   static_cast<long long>(report.failure_count),
                   static_cast<long long>(report.optimal_count),
                   report.wall_seconds, report.instances_per_second(),
                   report.latency.p50, report.latency.p99});
  std::cout << summary;

  if (cli.has("csv")) {
    write_output(cli.get("csv", "-"),
                 report.rows_table(/*with_latency=*/false).to_csv());
  }
  if (cli.has("json")) {
    write_output(cli.get("json", "-"), report.to_json() + "\n");
  }
  return report.failure_count == 0 ? 0 : 1;
}

int cmd_sweep(const Cli& cli) {
  CommonArgs args = read_common_args(cli, 64);
  WDAG_REQUIRE(!args.gen.family.empty(), "sweep requires --gen NAME");
  // Each sweep point opens (and truncates) the stream path, so all but
  // the last point's rows would be lost — reject rather than surprise.
  WDAG_REQUIRE(args.stream_csv.empty(),
               "sweep does not support --stream-csv (each point would "
               "overwrite the file); use --csv for the sweep table");
  const std::string param = cli.get("param", "paths");
  const double from = cli.get_double("from", 8);
  const double to = cli.get_double("to", 64);
  const double step = cli.get_double("step", param == "density" ? 0.1 : 8);
  WDAG_REQUIRE(step > 0, "sweep --step must be positive");
  WDAG_REQUIRE(from <= to, "sweep needs --from <= --to");

  // One engine for the whole sweep: the pool and per-worker arenas
  // persist across points.
  wdag::Engine engine = make_engine(args, args.batch.threads);

  wdag::util::Table table(
      "sweep over --" + param + " (" + args.gen.family + ")",
      {param, "instances", "theorem1", "split-merge", "dsatur", "exact",
       "failures", "avg_load", "avg_w", "inst_per_s"});
  for (double value = from; value <= to + 1e-9; value += step) {
    auto& knobs = args.gen.params;
    if (param == "paths") knobs.paths = static_cast<std::size_t>(value);
    else if (param == "size") knobs.size = static_cast<std::size_t>(value);
    else if (param == "density") knobs.density = value;
    else if (param == "k") knobs.k = static_cast<std::size_t>(value);
    else throw wdag::InvalidArgument("unknown sweep --param '" + param + "'");

    wdag::BatchRequest request;
    request.generator = args.gen;
    request.count = args.count;
    request.options = args.batch;
    request.force_strategy = args.force;
    const BatchReport report = engine.run_batch(request);

    const double solved = static_cast<double>(report.instance_count -
                                              report.failure_count);
    std::vector<wdag::util::Cell> row;
    row.emplace_back(value);
    row.emplace_back(static_cast<long long>(report.instance_count));
    row.emplace_back(static_cast<long long>(report.count("theorem1")));
    row.emplace_back(static_cast<long long>(report.count("split-merge")));
    row.emplace_back(static_cast<long long>(report.count("dsatur")));
    row.emplace_back(static_cast<long long>(report.count("exact")));
    row.emplace_back(static_cast<long long>(report.failure_count));
    row.emplace_back(
        solved > 0 ? static_cast<double>(report.total_load) / solved : 0.0);
    row.emplace_back(
        solved > 0 ? static_cast<double>(report.total_wavelengths) / solved
                   : 0.0);
    row.emplace_back(report.instances_per_second());
    table.add_row(std::move(row));
  }
  std::cout << table;
  if (cli.has("csv")) write_output(cli.get("csv", "-"), table.to_csv());
  if (cli.has("json")) {
    write_output(cli.get("json", "-"), table.to_json_rows() + "\n");
  }
  return 0;
}

/// The ShardSpec the common flags describe (plan side).
wdag::ShardSpec spec_from_args(const CommonArgs& args) {
  wdag::ShardSpec spec;
  spec.family = args.gen.family;
  spec.params = args.gen.params;
  spec.count = args.count;
  spec.seed = args.gen.seed;
  spec.solve = args.solve;
  if (args.force.has_value()) spec.force_strategy = *args.force;
  return spec;
}

/// The full-batch request a manifest describes (run side). The request
/// carries the GLOBAL count; Engine::run_shard narrows it to the shard's
/// index range.
wdag::BatchRequest request_from_manifest(const wdag::ShardManifest& m,
                                         const BatchOptions& exec) {
  wdag::BatchRequest request;
  request.generator =
      wdag::GeneratorSpec{m.spec.family, m.spec.params, m.spec.seed};
  request.count = m.spec.count;
  request.options = exec;        // execution knobs from the command line
  request.options.seed = m.spec.seed;  // bytes are the manifest's business
  request.options.index_base = 0;
  request.options.keep_entries = false;  // shards stream; no entry table
  request.solve = m.spec.solve;
  if (!m.spec.force_strategy.empty()) {
    request.force_strategy = m.spec.force_strategy;
  }
  return request;
}

int cmd_shard_plan(const Cli& cli) {
  const CommonArgs args = read_common_args(cli, 100);
  WDAG_REQUIRE(!args.gen.family.empty(), "shard plan requires --gen NAME");
  const std::int64_t shards = cli.get_int("shards", 0);
  WDAG_REQUIRE(shards >= 1, "shard plan requires --shards K (K >= 1)");
  const std::string prefix = cli.get("out", "");
  WDAG_REQUIRE(!prefix.empty(), "shard plan requires --out PREFIX");
  const wdag::core::ShardLayout layout =
      wdag::core::parse_layout(cli.get("layout", "contiguous"));

  const wdag::ShardPlan plan(spec_from_args(args),
                             static_cast<std::size_t>(shards), layout);
  wdag::util::Table table("shard plan " + plan.spec().family + " x " +
                              std::to_string(plan.spec().count) + " (" +
                              std::string(wdag::core::layout_name(layout)) +
                              ")",
                          {"shard", "begin", "end", "manifest"});
  for (std::size_t i = 0; i < plan.shards(); ++i) {
    const wdag::ShardManifest manifest = plan.manifest(i);
    const std::string path = prefix + "." + std::to_string(i) + ".json";
    write_output(path, wdag::core::manifest_to_json(manifest) + "\n");
    table.add_row({static_cast<long long>(i),
                   static_cast<long long>(manifest.range.begin),
                   static_cast<long long>(manifest.range.end), path});
  }
  std::cout << table;
  return 0;
}

int cmd_shard_run(const Cli& cli) {
  // The manifest is the single source of truth for everything that
  // affects bytes; reject workload AND solver flags instead of silently
  // ignoring them (only execution knobs stay on the command line).
  for (const char* flag :
       {"gen", "seed", "count", "force", "exact-threshold", "exact-budget"}) {
    WDAG_REQUIRE(!cli.has(flag),
                 std::string("shard run reads the workload from the "
                             "manifest; drop --") + flag);
  }
  const std::string manifest_path = cli.get("manifest", "");
  WDAG_REQUIRE(!manifest_path.empty(), "shard run requires --manifest FILE");
  const std::string out_path = cli.get("out", "");
  WDAG_REQUIRE(!out_path.empty(), "shard run requires --out PATH ('-' = stdout)");

  std::ifstream in(manifest_path);
  WDAG_REQUIRE(in.good(),
               "cannot open shard manifest '" + manifest_path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const wdag::ShardManifest manifest = wdag::core::parse_manifest(buf.str());

  const CommonArgs exec = read_common_args(cli, 100);
  wdag::Engine engine = make_engine(exec, exec.batch.threads);
  wdag::BatchRequest request = request_from_manifest(manifest, exec.batch);

  // Fault-injection hooks for the drive test suite. Both are scoped to
  // one shard index by the driver (which forwards them only to attempt 0
  // of that shard), so a drive hits exactly one injected fault.
  if (const char* slow = std::getenv("WDAG_DRIVE_SLOW_SHARD")) {
    char* colon = nullptr;
    const unsigned long long target = std::strtoull(slow, &colon, 10);
    if (target == manifest.shard && colon != nullptr && *colon == ':') {
      const long ms = std::strtol(colon + 1, nullptr, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms > 0 ? ms : 0));
    }
  }
  const char* fail = std::getenv("WDAG_DRIVE_FAIL_SHARD");
  const bool inject_failure =
      fail != nullptr && std::strtoull(fail, nullptr, 10) == manifest.shard;

  // The shard CSV: the manifest as a comment line, then the same column
  // header + rows the unsharded --stream-csv run emits for this range.
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (out_path != "-") {
    file.open(out_path);
    WDAG_REQUIRE(file.good(), "cannot open output file '" + out_path + "'");
    out = &file;
  }
  *out << wdag::core::shard_csv_header(manifest);
  if (inject_failure) {
    // Simulate a worker dying mid-write: a truncated (row-less) shard
    // file plus a crash-style exit code.
    *out << wdag::core::shard_csv_column_header() << "\n";
    out->flush();
    return 70;
  }
  wdag::CsvStreamSink csv(*out);
  request.sinks.push_back(&csv);

  std::ofstream json_file;
  std::optional<wdag::JsonSink> json;
  if (cli.has("json")) {
    const std::string json_path = cli.get("json", "-");
    std::ostream* json_out = &std::cout;
    if (json_path != "-") {
      json_file.open(json_path);
      WDAG_REQUIRE(json_file.good(),
                   "cannot open output file '" + json_path + "'");
      json_out = &json_file;
    }
    // The shard header here is the bare manifest object — NOT the CSV's
    // '#' comment form — so the file stays valid JSON-lines: manifest,
    // then one object per row, then the aggregate report.
    *json_out << wdag::core::manifest_to_json(manifest) << "\n";
    json.emplace(*json_out);
    request.sinks.push_back(&*json);
  }

  const BatchReport report = engine.run_shard(request, manifest.shard,
                                              manifest.shards,
                                              manifest.layout);

  if (out_path != "-" && !cli.has("quiet")) {
    // Keep stdout clean when the CSV streams to it (or --quiet asks for
    // it, as the drive workers do); otherwise summarize.
    std::cout << "shard " << manifest.shard << "/" << manifest.shards
              << " [" << manifest.range.begin << ", " << manifest.range.end
              << ") -> " << out_path << ": " << report.instance_count
              << " instances, " << report.failure_count << " failures\n";
  }
  return report.failure_count == 0 ? 0 : 1;
}

int cmd_shard_merge(const Cli& cli) {
  const std::string out_path = cli.get("out", "-");
  // positional: ["shard", "merge", file...]
  const std::vector<std::string>& pos = cli.positional();
  WDAG_REQUIRE(pos.size() > 2,
               "shard merge needs at least one shard output file argument");

  // A shard CSV opens with the '# wdag-shard' comment; a shard JSON-lines
  // file (shard run --json) opens with the bare manifest object. Peek the
  // first byte of the first file to pick the merge, instead of a flag the
  // files themselves can contradict.
  char first = '\0';
  {
    std::ifstream probe(pos[2]);
    WDAG_REQUIRE(probe.good(), "cannot open shard output '" + pos[2] + "'");
    probe.get(first);
  }

  std::string merged;
  if (first == '{') {
    std::vector<wdag::core::ShardJson> shards;
    shards.reserve(pos.size() - 2);
    for (std::size_t i = 2; i < pos.size(); ++i) {
      std::ifstream in(pos[i]);
      WDAG_REQUIRE(in.good(), "cannot open shard output '" + pos[i] + "'");
      shards.push_back(wdag::core::read_shard_json(in, pos[i]));
    }
    merged = wdag::core::merge_shard_json(shards);
  } else {
    std::vector<wdag::core::ShardCsv> shards;
    shards.reserve(pos.size() - 2);
    for (std::size_t i = 2; i < pos.size(); ++i) {
      shards.push_back(wdag::core::read_shard_csv_file(pos[i]));
    }
    merged = wdag::core::merge_shard_csv(shards);
  }
  write_output(out_path, merged);
  if (out_path != "-") {
    std::cout << "merged " << (pos.size() - 2) << " shards -> " << out_path
              << "\n";
  }
  return 0;
}

int cmd_drive(const Cli& cli) {
  const CommonArgs args = read_common_args(cli, 100);
  WDAG_REQUIRE(!args.gen.family.empty(), "drive requires --gen NAME");
  const std::int64_t shards = cli.get_int("shards", 0);
  WDAG_REQUIRE(shards >= 1, "drive requires --shards K (K >= 1)");
  const wdag::core::ShardLayout layout =
      wdag::core::parse_layout(cli.get("layout", "contiguous"));
  const wdag::ShardPlan plan(spec_from_args(args),
                             static_cast<std::size_t>(shards), layout);

  wdag::core::DriveOptions options;
  // --workers is a comma list mixing ONE local slot count (a bare
  // integer) and any number of HOST:PORT remote endpoints; '4',
  // 'h1:9100,h2:9100' and '2,h1:9100' are all valid.
  {
    const std::string spec = cli.get("workers", "0");
    std::size_t begin = 0;
    bool saw_local = false;
    while (begin <= spec.size()) {
      const std::size_t comma = spec.find(',', begin);
      const std::string token = spec.substr(
          begin, comma == std::string::npos ? std::string::npos
                                            : comma - begin);
      if (!token.empty()) {
        if (token.find(':') != std::string::npos) {
          // Parsed strictly right away: a typo should die as a usage
          // error here, not as a dial failure mid-drive.
          (void)wdag::core::TcpTransport::parse_endpoint(token);
          options.remote_workers.push_back(token);
        } else {
          WDAG_REQUIRE(
              token.find_first_not_of("0123456789") == std::string::npos,
              "--workers: '" + token +
                  "' is neither a slot count nor a HOST:PORT endpoint");
          WDAG_REQUIRE(!saw_local,
                       "--workers: more than one local slot count in '" +
                           spec + "'");
          saw_local = true;
          options.workers = static_cast<std::size_t>(
              std::strtoull(token.c_str(), nullptr, 10));
        }
      }
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }
  const std::int64_t connect_timeout = cli.get_int("connect-timeout-ms", 1000);
  WDAG_REQUIRE(connect_timeout >= 1, "--connect-timeout-ms must be >= 1");
  options.connect_timeout_ms = static_cast<int>(connect_timeout);
  options.probe_interval_seconds = cli.get_double("probe-interval", 2.0);
  WDAG_REQUIRE(options.probe_interval_seconds > 0.0,
               "--probe-interval must be > 0 seconds");
  const std::int64_t probe_timeout = cli.get_int("probe-timeout-ms", 500);
  WDAG_REQUIRE(probe_timeout >= 1, "--probe-timeout-ms must be >= 1");
  options.probe_timeout_ms = static_cast<int>(probe_timeout);
  const std::int64_t miss_budget = cli.get_int("probe-miss-budget", 3);
  WDAG_REQUIRE(miss_budget >= 1, "--probe-miss-budget must be >= 1");
  options.probe_miss_budget = static_cast<std::size_t>(miss_budget);
  const std::int64_t retries = cli.get_int("max-retries", 2);
  WDAG_REQUIRE(retries >= 0, "--max-retries must be >= 0, got " +
                                 std::to_string(retries));
  options.max_retries = static_cast<std::size_t>(retries);
  // Numeric schedule knobs are rejected HERE, at parse time, with a
  // usage error — a negative timeout/backoff/speculate would otherwise
  // surface as an internal drive failure long after parsing.
  options.timeout_seconds = cli.get_double("timeout", 0.0);
  WDAG_REQUIRE(options.timeout_seconds >= 0.0,
               "--timeout must be >= 0 seconds (0 = off)");
  options.backoff_seconds = cli.get_double("backoff", 0.25);
  WDAG_REQUIRE(options.backoff_seconds >= 0.0,
               "--backoff must be >= 0 seconds");
  options.speculate_factor = cli.get_double("speculate", 0.0);
  WDAG_REQUIRE(options.speculate_factor >= 0.0,
               "--speculate must be >= 0 (0 = off)");
  const std::int64_t fail_fast = cli.get_int("fail-fast", 8);
  WDAG_REQUIRE(fail_fast >= 0, "--fail-fast must be >= 0 (0 = off), got " +
                                   std::to_string(fail_fast));
  options.fail_fast = static_cast<std::size_t>(fail_fast);
  options.resume = cli.has("resume");
  options.worker_threads = args.batch.threads;
  options.keep_outputs = cli.has("keep-work");

  options.work_dir = cli.get("work-dir", "");
  WDAG_REQUIRE(!options.work_dir.empty(), "drive requires --work-dir DIR");
  std::filesystem::create_directories(options.work_dir);

  options.wdag_binary = cli.get("wdag-bin", "");
  if (options.wdag_binary.empty()) {
    // The workers run this very binary; /proc/self/exe survives PATH-less
    // invocations and cwd changes, argv[0] is the portable fallback.
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    options.wdag_binary = ec ? cli.program() : self.string();
  }

  // --events: one JSON line per lifecycle event, as they happen.
  std::ofstream events_file;
  std::ostream* events_out = nullptr;
  if (cli.has("events")) {
    const std::string events_path = cli.get("events", "-");
    if (events_path == "-") {
      events_out = &std::cerr;
    } else {
      // Append, never truncate: a resumed drive's log continues the
      // crashed run's, and the per-line flush below means the tail
      // survives a crash — exactly when the log matters.
      events_file.open(events_path, std::ios::app);
      WDAG_REQUIRE(events_file.good(),
                   "cannot open events file '" + events_path + "'");
      events_out = &events_file;
    }
  }
  wdag::core::DriveEventFn on_event;
  if (events_out != nullptr) {
    on_event = [events_out](const wdag::core::DriveEvent& ev) {
      *events_out << ev.to_json() << "\n";
      events_out->flush();  // the log must survive a killed/failed drive
    };
  }

  const std::string out_path = cli.get("out", "-");
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (out_path != "-") {
    file.open(out_path);
    WDAG_REQUIRE(file.good(), "cannot open output file '" + out_path + "'");
    out = &file;
  }

  wdag::core::DriveReport report;
  try {
    report = wdag::core::drive(plan, options, *out, on_event);
  } catch (const wdag::core::DriveInterrupted& e) {
    // Graceful shutdown: the work dir is resumable; exit like a shell
    // child killed by the signal so wrappers see the interruption.
    std::cerr << "wdag: " << e.what() << "\n";
    return 128 + e.signal();
  }

  // Keep stdout clean when the merged CSV streamed to it.
  std::ostream& info = out_path == "-" ? std::cerr : std::cout;
  if (cli.has("progress")) info << report.progress_table();
  info << "drive: " << plan.shards() << " shards ("
       << wdag::core::layout_name(plan.layout()) << ") -> " << out_path
       << ": " << report.retries << " retries, " << report.speculations
       << " speculations, " << report.resumed << " resumed, "
       << report.redispatches << " redispatches, " << report.wall_seconds
       << "s\n";
  return 0;
}

// SIGINT/SIGTERM flag of `wdag worker` (the serve pattern: flip a flag,
// the accept loop polls it every tick and exits cleanly).
volatile std::sig_atomic_t g_worker_stop = 0;

void worker_signal_handler(int) { g_worker_stop = 1; }

int cmd_worker(const Cli& cli) {
  wdag::remote::ShardWorkerOptions options;
  options.host = cli.get("host", "127.0.0.1");
  const std::int64_t port = cli.get_int("port", 0);
  WDAG_REQUIRE(port >= 0 && port <= 65535,
               "--port must be in [0, 65535] (0 = ephemeral), got " +
                   std::to_string(port));
  options.port = static_cast<std::uint16_t>(port);
  const std::int64_t threads = cli.get_int("threads", 0);
  WDAG_REQUIRE(threads >= 0,
               "--threads must be >= 0 (0 = hardware concurrency), got " +
                   std::to_string(threads));
  options.engine_threads = static_cast<std::size_t>(threads);
  options.idle_timeout_ms = cli.get_double("idle-timeout-ms", 0.0);
  WDAG_REQUIRE(options.idle_timeout_ms >= 0.0,
               "--idle-timeout-ms must be >= 0 (0 = never)");
  options.hooks = wdag::remote::ShardWorkerHooks::from_env();

  g_worker_stop = 0;
  std::signal(SIGINT, worker_signal_handler);
  std::signal(SIGTERM, worker_signal_handler);
  options.external_stop = [] { return g_worker_stop != 0; };

  const std::string host = options.host;
  wdag::remote::ShardWorker worker(std::move(options));
  if (cli.has("port-file")) {
    // Write-then-rename so a script that saw the file appear never reads
    // a half-written port number.
    const std::string path = cli.get("port-file", "");
    WDAG_REQUIRE(!path.empty(), "--port-file requires a path");
    const std::string tmp = path + ".tmp";
    write_output(tmp, std::to_string(worker.port()) + "\n");
    std::filesystem::rename(tmp, path);
  }
  std::cout << "wdag worker: listening on " << host << ":" << worker.port()
            << std::endl;
  worker.run();
  std::cout << "wdag worker: stopped (" << worker.shards_served()
            << " shards served, " << worker.shards_failed() << " failed, "
            << worker.pings_answered() << " pings)" << std::endl;
  return 0;
}

// SIGINT/SIGTERM flag of `wdag serve` (the PR 7 drive pattern): the
// handler only flips the flag; the accept loop polls it every tick and
// then DRAINS — in-flight and admitted work completes, new work is
// refused, and serve exits 0. Contrast with drive, which exits
// 128+signal: a served drain is the intended shutdown, not an abort.
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int cmd_serve(const Cli& cli) {
  wdag::ServeOptions options;
  options.host = cli.get("host", "127.0.0.1");
  const std::int64_t port = cli.get_int("port", 0);
  WDAG_REQUIRE(port >= 0 && port <= 65535,
               "--port must be in [0, 65535] (0 = ephemeral), got " +
                   std::to_string(port));
  options.port = static_cast<std::uint16_t>(port);
  const std::int64_t queue = cli.get_int("queue", 64);
  WDAG_REQUIRE(queue >= 1, "--queue must be >= 1, got " +
                               std::to_string(queue));
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.default_deadline_ms = cli.get_double("deadline-ms", 0.0);
  WDAG_REQUIRE(options.default_deadline_ms >= 0.0,
               "--deadline-ms must be >= 0 (0 = none)");
  const std::int64_t threads = cli.get_int("threads", 0);
  WDAG_REQUIRE(threads >= 0,
               "--threads must be >= 0 (0 = hardware concurrency), got " +
                   std::to_string(threads));
  options.engine_threads = static_cast<std::size_t>(threads);
  const std::int64_t max_connections = cli.get_int("max-connections", 0);
  WDAG_REQUIRE(max_connections >= 0,
               "--max-connections must be >= 0 (0 = unlimited), got " +
                   std::to_string(max_connections));
  options.max_connections = static_cast<std::size_t>(max_connections);
  options.idle_timeout_ms = cli.get_double("idle-timeout-ms", 0.0);
  WDAG_REQUIRE(options.idle_timeout_ms >= 0.0,
               "--idle-timeout-ms must be >= 0 (0 = never)");
  options.solve.exact_threshold =
      static_cast<std::size_t>(cli.get_int("exact-threshold", 48));
  options.solve.exact_node_budget =
      static_cast<std::size_t>(cli.get_int("exact-budget", 20'000'000));
  options.enable_test_hooks =
      std::getenv("WDAG_SERVE_TEST_HOOKS") != nullptr;

  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  options.external_stop = [] { return g_serve_stop != 0; };

  const std::string host = options.host;
  const std::size_t capacity = options.queue_capacity;
  wdag::Server server(std::move(options));
  if (cli.has("port-file")) {
    // Write-then-rename so a script that saw the file appear never reads
    // a half-written port number.
    const std::string path = cli.get("port-file", "");
    WDAG_REQUIRE(!path.empty(), "--port-file requires a path");
    const std::string tmp = path + ".tmp";
    write_output(tmp, std::to_string(server.port()) + "\n");
    std::filesystem::rename(tmp, path);
  }
  std::cout << "wdag serve: listening on " << host << ":" << server.port()
            << " (queue " << capacity << ")" << std::endl;
  server.run();
  std::cout << "wdag serve: drained and stopped ("
            << server.stats().solved() << " solves, "
            << server.stats().batches() << " batches, "
            << (server.stats().rejected_queue_full() +
                server.stats().rejected_deadline() +
                server.stats().rejected_shutdown())
            << " rejected)" << std::endl;
  return 0;
}

int cmd_request(const Cli& cli) {
  const std::string host = cli.get("host", "127.0.0.1");
  const std::int64_t port = cli.get_int("port", 0);
  WDAG_REQUIRE(port >= 1 && port <= 65535,
               "request requires --port P (1..65535)");
  const std::int64_t timeout_ms = cli.get_int("timeout-ms", 30'000);
  WDAG_REQUIRE(timeout_ms >= 1, "--timeout-ms must be >= 1, got " +
                                    std::to_string(timeout_ms));

  std::string line;
  if (cli.has("req-file")) {
    const std::string path = cli.get("req-file", "");
    std::ifstream in(path);
    WDAG_REQUIRE(in.good(), "cannot open request file '" + path + "'");
    while (std::getline(in, line) && line.empty()) {
    }
    WDAG_REQUIRE(!line.empty(),
                 "request file '" + path + "' has no request line");
    // Parse locally first so a malformed file fails here with a usage
    // error, not as a served 'error' response.
    (void)wdag::serve::parse_request(line);
  } else {
    wdag::serve::WireRequest request;
    const std::string type = cli.get("type", "solve");
    if (type == "solve") request.kind = wdag::serve::RequestKind::kSolve;
    else if (type == "batch") request.kind = wdag::serve::RequestKind::kBatch;
    else if (type == "stats") request.kind = wdag::serve::RequestKind::kStats;
    else if (type == "sleep") request.kind = wdag::serve::RequestKind::kSleep;
    else throw wdag::InvalidArgument("--type must be solve | batch | stats, got '" +
                                     type + "'");
    request.id = cli.get("id", "");
    request.deadline_ms = cli.get_double("deadline-ms", 0.0);
    WDAG_REQUIRE(request.deadline_ms >= 0.0,
                 "--deadline-ms must be >= 0 (0 = none)");
    if (request.kind == wdag::serve::RequestKind::kSolve ||
        request.kind == wdag::serve::RequestKind::kBatch) {
      const CommonArgs args = read_common_args(cli, 100);
      WDAG_REQUIRE(!args.gen.family.empty(),
                   "request --type " + type + " requires --gen NAME");
      request.gen = args.gen;
      request.count = args.count;
      request.force = args.force;
      if (cli.has("exact-threshold") || cli.has("exact-budget")) {
        request.solve = args.solve;
      }
    } else if (request.kind == wdag::serve::RequestKind::kSleep) {
      request.sleep_ms = cli.get_double("millis", 0.0);
    }
    line = wdag::serve::request_to_json(request);
  }

  const std::string response = wdag::serve::request_once(
      host, static_cast<std::uint16_t>(port), line,
      static_cast<int>(timeout_ms));
  std::cout << response << "\n";
  const wdag::serve::WireReply reply = wdag::serve::parse_reply(response);
  if (reply.status == "ok") return 0;
  if (reply.status == "rejected") return 3;
  return 4;
}

int cmd_shard(const Cli& cli) {
  const std::vector<std::string>& pos = cli.positional();
  if (pos.size() < 2) {
    std::cerr << "shard needs a subcommand: plan | run | merge\n";
    return usage(std::cerr);
  }
  const std::string& sub = pos[1];
  if (sub == "plan") return cmd_shard_plan(cli);
  if (sub == "run") return cmd_shard_run(cli);
  if (sub == "merge") return cmd_shard_merge(cli);
  std::cerr << "unknown shard subcommand '" << sub << "'\n";
  return usage(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  // Process-wide, before anything can write to a socket or pipe: a peer
  // that disappears mid-write must surface as a failed write, never kill
  // the process (regression-tested by serve_sigpipe).
  wdag::util::ignore_sigpipe();
  try {
    const Cli cli(argc, argv);
    if (cli.has("help")) {
      usage(std::cout);
      return 0;
    }
    if (cli.has("version")) {
      std::cout << wdag::util::build_info_line() << "\n";
      return 0;
    }
    // Deprecated in 0.4.1 (one batch schedule): accepted with no effect.
    for (const char* flag : {"schedule", "min-chunk", "max-chunk"}) {
      if (cli.has(flag)) {
        std::cerr << "wdag: --" << flag
                  << " is deprecated and has no effect (one batch "
                     "schedule; --chunk pins its size); it is removed in "
                     "0.5.0\n";
      }
    }
    if (cli.positional().empty()) return usage(std::cerr);
    const std::string& command = cli.positional().front();
    if (command == "solve") return cmd_solve(cli);
    if (command == "batch") return cmd_batch(cli);
    if (command == "sweep") return cmd_sweep(cli);
    if (command == "shard") return cmd_shard(cli);
    if (command == "drive") return cmd_drive(cli);
    if (command == "worker") return cmd_worker(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "request") return cmd_request(cli);
    std::cerr << "unknown command '" << command << "'\n";
    return usage(std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "wdag: " << e.what() << "\n";
    return 2;
  }
}
