#pragma once
// Fault-tolerant execution of a full ShardPlan — the `wdag drive` engine
// (docs/ARCHITECTURE.md, "The drive loop").
//
// drive() runs every shard of a plan through a pool of attempt slots
// behind the WorkerTransport abstraction (core/transport.hpp): local
// slots spawn `<wdag> shard run` subprocesses, remote slots send the
// manifest to long-lived `wdag worker` peers over TCP. The merge streams
// to an output stream, tolerating the failure modes that stall a
// hand-dispatched plan:
//
//   * crash / non-zero exit      -> bounded retry with exponential backoff
//   * hang (per-shard timeout)   -> kill, then retry
//   * invalid output             -> read_shard_csv validation failure is
//                                   treated exactly like a crash — a
//                                   truncated shard can never merge
//   * straggler                  -> speculative re-execution once a shard
//                                   runs longer than `speculate_factor` x
//                                   the median completed-shard time; the
//                                   first attempt whose output VALIDATES
//                                   wins, losers are killed and discarded
//   * systemic worker sickness   -> consecutive failures spanning DISTINCT
//                                   shards quarantine all dispatch with
//                                   escalating backoff, then fail fast
//                                   after `fail_fast` in a row — a sick
//                                   machine should not burn every shard's
//                                   full retry budget
//   * sick REMOTE worker         -> each TcpTransport pings its worker on
//                                   an interval; `probe_miss_budget`
//                                   consecutive misses take it out of
//                                   rotation and its in-flight attempts
//                                   are re-dispatched elsewhere WITHOUT
//                                   burning retry budget; probing
//                                   continues, so a recovered worker
//                                   rejoins. When every remote is down
//                                   and no local slots were configured,
//                                   the drive degrades to local-only
//                                   execution instead of stalling
//   * DRIVER death               -> the drive is a restartable transaction
//                                   over the work dir: each validated
//                                   shard output is committed atomically
//                                   (tmp + fsync + rename) and recorded in
//                                   a fsync'd `drive.journal`; a crashed,
//                                   OOM-killed or interrupted drive is
//                                   re-run with `resume = true`, which
//                                   RE-VALIDATES every journaled output
//                                   (a journal entry is a hint, never
//                                   proof) and runs only the remainder
//
// SIGINT/SIGTERM end a drive gracefully: children are killed and the loop
// throws DriveInterrupted with a resumable diagnostic — committed outputs
// and the journal stay on disk for the next run.
//
// The merge preserves PR 5's byte-determinism contract: every accepted
// shard output passes read_shard_csv (per-row global index check) and
// plan-identity checks before a byte is emitted, so the merged CSV is
// byte-identical to the unsharded `wdag batch --stream-csv` run — even
// when shards failed, were retried, raced speculative duplicates, or
// were revived from a previous run's journal. Contiguous plans stream
// shard payloads as they land in global order; striped plans interleave
// after the last shard lands.
//
// Observability: every lifecycle step (dispatch / exit / timeout / retry
// / speculate / complete / resume / resume-skip / quarantine / interrupt
// / done) is reported through an event callback as a typed DriveEvent
// that also renders as one JSON line — the CLI's --events log — and the
// final DriveReport carries per-shard attempt statistics (the CLI's
// --progress table). The --events stream is the human log; the journal
// is the recovery log.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch.hpp"
#include "core/shard.hpp"
#include "util/table.hpp"

namespace wdag::core {

/// Name of the durable recovery journal inside DriveOptions::work_dir: a
/// fsync-per-line JSON-lines file whose header stamps the plan id and
/// format version and whose entries record validated shard completions.
inline constexpr std::string_view kDriveJournalFile = "drive.journal";

/// Version of the journal format; readers reject any other version.
inline constexpr int kDriveJournalVersion = 1;

// Keeps DriveOptions' implicit members, which initialize the deprecated
// worker_schedule, from warning in every includer.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

/// Knobs of the drive loop.
struct DriveOptions {
  /// Concurrent LOCAL worker subprocesses. 0 = min(shards, hardware
  /// threads) when `remote_workers` is empty; with remote workers
  /// configured, 0 means no local slots (remote-only, until degradation
  /// raises emergency local slots because every remote is unhealthy).
  std::size_t workers = 0;
  /// Remote `wdag worker` endpoints ("host:port"), one attempt slot
  /// each, dispatched remote-first behind the same validate-or-retry
  /// loop as local slots.
  std::vector<std::string> remote_workers;
  /// Retries allowed per shard AFTER its first attempt; exceeding this
  /// fails the whole drive (no partial merge is ever produced).
  std::size_t max_retries = 2;
  /// Per-attempt hard timeout in seconds; 0 disables. A timed-out
  /// attempt is killed and counts as a failure (then retried).
  double timeout_seconds = 0.0;
  /// Base retry backoff in seconds, doubled per consecutive failure of
  /// the same shard (also the base of the quarantine pause).
  double backoff_seconds = 0.25;
  /// Straggler threshold: once >= `speculate_min_completed` shards have
  /// completed, a shard whose sole attempt has run longer than
  /// speculate_factor x the median completed-shard time gets ONE
  /// speculative duplicate attempt. 0 disables speculation.
  double speculate_factor = 0.0;
  /// Completed shards required before speculation engages (>= 1).
  std::size_t speculate_min_completed = 1;
  /// Abort the drive after this many CONSECUTIVE failed attempts that
  /// span at least two distinct shards — a systemic fault (sick machine,
  /// bad binary), not a bad shard. Same-shard failure runs are left to
  /// the per-shard retry budget. 0 disables.
  std::size_t fail_fast = 8;
  /// Reuse validated shard outputs journaled in `work_dir` by a previous
  /// drive of the SAME plan: journaled outputs are re-validated through
  /// read_shard_csv + plan identity, verified shards are skipped, the
  /// remainder runs. A journal from a different plan is rejected.
  bool resume = false;
  /// Path of the wdag binary the workers execute (required).
  std::string wdag_binary;
  /// Scratch directory for manifests, the journal, and per-attempt shard
  /// outputs (required; must exist).
  std::string work_dir;
  /// --threads forwarded to every worker (0 = worker default).
  std::size_t worker_threads = 0;
  [[deprecated("no effect: workers have no schedule to inherit")]]
  Schedule worker_schedule = Schedule::kFixed;
  /// Keep committed shard files and the journal after a successful drive
  /// (default: a SUCCESSFUL drive deletes everything it created; failed
  /// or interrupted drives always keep committed outputs + journal so
  /// `resume` can reuse them).
  bool keep_outputs = false;
  /// Dial timeout of every remote attempt and probe connection (ms).
  int connect_timeout_ms = 1000;
  /// Seconds between health probes of each remote worker.
  double probe_interval_seconds = 2.0;
  /// Per-probe timeout (dial + pong) in ms.
  int probe_timeout_ms = 500;
  /// Consecutive probe misses before a remote worker is taken out of
  /// rotation (its in-flight attempts re-dispatch elsewhere); probing
  /// continues and a successful probe puts it back.
  std::size_t probe_miss_budget = 3;
};

#pragma GCC diagnostic pop

/// One lifecycle event of a drive, also renderable as a JSON line.
/// Kinds: "dispatch", "speculate" (a speculative dispatch), "exit" (an
/// attempt failed: non-zero exit or invalid output), "timeout", "retry"
/// (a re-dispatch was scheduled), "complete" (a shard finished with a
/// validated, committed, journaled output), "resume" (a journaled output
/// re-validated and was skipped), "resume-skip" (a journal entry failed
/// re-validation; its shard re-runs), "quarantine" (systemic failures
/// paused all dispatch), "interrupt" (SIGINT/SIGTERM ended the drive),
/// "done" (the drive finished). Remote-worker health adds: "probe-miss"
/// (one failed probe), "unhealthy" (miss budget exhausted; out of
/// rotation), "recovered" (a probe succeeded; back in rotation),
/// "redispatch" (an in-flight attempt on a newly unhealthy worker was
/// killed and its shard re-queued, without burning retry budget), and
/// "degrade" (every remote is unhealthy and local emergency slots were
/// raised).
struct DriveEvent {
  std::string kind;
  std::size_t shard = 0;
  std::size_t attempt = 0;        ///< 0-based attempt number of the shard
  double at_seconds = 0.0;        ///< time since drive start
  double elapsed_seconds = 0.0;   ///< attempt (or drive, for "done") runtime
  int exit_code = 0;              ///< child exit code where applicable
  std::string worker;             ///< transport id ("local", "host:port")
  std::string detail;             ///< human-readable context (may be empty)

  /// The event as a single JSON line (stable key order, no newline).
  [[nodiscard]] std::string to_json() const;
};

/// Observer of drive lifecycle events; called from the drive loop thread.
using DriveEventFn = std::function<void(const DriveEvent&)>;

/// Thrown by drive() when SIGINT/SIGTERM ends the run: children are
/// killed, committed outputs and the journal remain on disk, and the
/// message says how to resume. signal() is the terminating signal (the
/// CLI exits 128 + signal).
class DriveInterrupted : public std::runtime_error {
 public:
  DriveInterrupted(int signal, const std::string& what)
      : std::runtime_error(what), signal_(signal) {}
  [[nodiscard]] int signal() const { return signal_; }

 private:
  int signal_;
};

/// Per-shard outcome statistics.
struct DriveShardStats {
  std::size_t shard = 0;
  std::size_t attempts = 0;    ///< dispatches, speculative ones included
  std::size_t retries = 0;     ///< failed attempts that were re-dispatched
  bool speculated = false;     ///< a speculative duplicate was launched
  bool resumed = false;        ///< revived from a previous run's journal
  double seconds = 0.0;        ///< runtime of the winning attempt
  std::size_t rows = 0;        ///< validated rows merged from this shard
  std::string worker;          ///< transport that produced the winning
                               ///< attempt ("local", "host:port",
                               ///< "journal" for resumed shards)
};

/// Outcome of a successful drive.
struct DriveReport {
  std::vector<DriveShardStats> shards;  ///< indexed by shard
  std::size_t retries = 0;              ///< total re-dispatches
  std::size_t speculations = 0;         ///< total speculative dispatches
  std::size_t resumed = 0;              ///< shards revived from the journal
  std::size_t quarantines = 0;          ///< systemic-failure pauses
  std::size_t redispatches = 0;         ///< attempts moved off unhealthy
                                        ///< workers (no retry budget burned)
  double wall_seconds = 0.0;

  /// Per-shard summary (the CLI's --progress table).
  [[nodiscard]] util::Table progress_table() const;
};

/// Executes every shard of `plan` via worker subprocesses and streams the
/// validated merge into `out` (byte-identical to the unsharded streaming
/// CSV of the plan's request). Throws wdag::InternalError when a shard
/// exhausts its retry budget, the fail-fast threshold trips, or the
/// platform cannot spawn subprocesses; throws DriveInterrupted on
/// SIGINT/SIGTERM. On failure nothing further is written to `out`, all
/// live workers are killed, and committed shard outputs plus the journal
/// stay in the work dir for `DriveOptions::resume`. `on_event` (optional)
/// observes every lifecycle event.
DriveReport drive(const ShardPlan& plan, const DriveOptions& options,
                  std::ostream& out, const DriveEventFn& on_event = {});

}  // namespace wdag::core
