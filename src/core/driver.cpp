#include "core/driver.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "core/json_min.hpp"
#include "core/transport.hpp"
#include "util/check.hpp"
#include "util/subprocess.hpp"
#include "util/timer.hpp"

namespace wdag::core {

namespace {

/// Timings with millisecond precision — enough for logs, and short.
std::string fmt_seconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A fault-injection hook read from the DRIVER's environment
/// (WDAG_DRIVE_FAIL_SHARD / WDAG_DRIVE_SLOW_SHARD). The driver forwards
/// the variable ONLY to attempt 0 of the shard named by its leading
/// integer and strips it from every other child, so the hook exercises
/// exactly one failure/straggle and the retry/speculation recovers.
struct Hook {
  bool set = false;
  std::size_t shard = 0;
  std::string name;
  std::string value;
};

Hook read_hook(const char* name) {
  Hook h;
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return h;
  h.set = true;
  h.name = name;
  h.value = v;
  h.shard = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  return h;
}

/// One live attempt, on whichever transport started it.
struct Attempt {
  std::unique_ptr<TransportAttempt> handle;
  std::size_t transport;  ///< index into the drive's transport list
  std::size_t number;     ///< 0-based attempt counter of the shard
  double started_at;      ///< drive-clock time of the start
  std::string out_path;   ///< tmp path this attempt writes its shard CSV to
  bool speculative;
};

/// Driver-side bookkeeping of one shard of the plan.
struct ShardState {
  std::vector<Attempt> live;
  std::size_t attempts = 0;  ///< dispatches so far (speculative included)
  std::size_t failures = 0;  ///< attempts that exited bad / timed out
  std::size_t retries = 0;   ///< re-dispatches actually scheduled
  bool speculated = false;
  bool resumed = false;      ///< revived from a previous run's journal
  bool done = false;
  bool pending = true;       ///< wants a (re)dispatch
  double ready_at = 0.0;     ///< backoff gate for the next dispatch
  ShardCsv result;           ///< the winning validated output
  std::size_t row_count = 0;
  double win_seconds = 0.0;
  std::string worker;        ///< transport id of the winning attempt
  std::string last_error;
};

double median_of(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + (v.size() - 1) / 2, v.end());
  return v[(v.size() - 1) / 2];
}

/// Consecutive distinct-shard failures before dispatch is quarantined
/// (the escalating drive-level pause; fail_fast then aborts outright).
constexpr std::size_t kQuarantineAfter = 3;

// ---------------------------------------------------------------------------
// Graceful shutdown: SIGINT/SIGTERM set a flag the single-threaded loop
// checks once per iteration — children are killed, the journal is already
// durable, and drive() throws DriveInterrupted.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_drive_signal = 0;

void drive_signal_handler(int sig) { g_drive_signal = sig; }

/// Installs the drive's SIGINT/SIGTERM handlers for the duration of one
/// drive() call and restores the previous dispositions on destruction.
class SignalScope {
 public:
  SignalScope() {
    g_drive_signal = 0;
    prev_int_ = std::signal(SIGINT, &drive_signal_handler);
    prev_term_ = std::signal(SIGTERM, &drive_signal_handler);
  }
  ~SignalScope() {
    if (prev_int_ != SIG_ERR) std::signal(SIGINT, prev_int_);
    if (prev_term_ != SIG_ERR) std::signal(SIGTERM, prev_term_);
  }
  SignalScope(const SignalScope&) = delete;
  SignalScope& operator=(const SignalScope&) = delete;

 private:
  using Handler = void (*)(int);
  Handler prev_int_;
  Handler prev_term_;
};

/// Scoped sweep of the drive's files, exception-safe by construction.
/// Scratch (manifests, attempt tmp files) is always removed; committed
/// shard outputs and the journal are removed only after a SUCCESSFUL
/// drive — a failed or interrupted drive keeps exactly the state
/// `resume` needs. keep disables the sweep entirely.
struct CleanupGuard {
  const std::vector<std::string>* scratch = nullptr;
  const std::vector<std::string>* committed = nullptr;
  bool keep = false;
  bool success = false;
  ~CleanupGuard() {
    if (keep) return;
    for (const std::string& f : *scratch) std::remove(f.c_str());
    if (!success) return;
    for (const std::string& f : *committed) std::remove(f.c_str());
  }
};

/// The journal's first line: enough identity to refuse resuming a
/// foreign plan's work dir.
std::string journal_header_json(const ShardPlan& plan) {
  std::string s = "{\"journal\":\"wdag-drive\"";
  s += ",\"version\":" + std::to_string(kDriveJournalVersion);
  s += ",\"plan\":\"" + minjson::hex16(plan.id()) + "\"";
  s += ",\"request\":\"" + minjson::hex16(plan.request_hash()) + "\"";
  s += ",\"shards\":" + std::to_string(plan.shards());
  s += "}";
  return s;
}

/// One validated completion. `rel_path` is relative to the work dir so a
/// moved work dir stays resumable.
std::string journal_entry_json(std::size_t shard, std::size_t attempt,
                               std::size_t rows, double seconds,
                               const std::string& rel_path,
                               std::uint64_t request_hash) {
  std::string s = "{\"shard\":" + std::to_string(shard);
  s += ",\"attempt\":" + std::to_string(attempt);
  s += ",\"rows\":" + std::to_string(rows);
  s += ",\"seconds\":" + fmt_seconds(seconds);
  s += ",\"path\":\"" + json_escape(rel_path) + "\"";
  s += ",\"request\":\"" + minjson::hex16(request_hash) + "\"";
  s += "}";
  return s;
}

}  // namespace

std::string DriveEvent::to_json() const {
  std::string s = "{\"ev\":\"" + json_escape(kind) + "\"";
  s += ",\"shard\":" + std::to_string(shard);
  s += ",\"attempt\":" + std::to_string(attempt);
  s += ",\"t\":" + fmt_seconds(at_seconds);
  s += ",\"elapsed\":" + fmt_seconds(elapsed_seconds);
  s += ",\"exit\":" + std::to_string(exit_code);
  if (!worker.empty()) s += ",\"worker\":\"" + json_escape(worker) + "\"";
  if (!detail.empty()) s += ",\"detail\":\"" + json_escape(detail) + "\"";
  s += "}";
  return s;
}

util::Table DriveReport::progress_table() const {
  util::Table table("drive",
                    {"shard", "attempts", "retries", "speculated", "resumed",
                     "worker", "seconds", "rows"});
  for (const DriveShardStats& s : shards) {
    table.add_row({static_cast<long long>(s.shard),
                   static_cast<long long>(s.attempts),
                   static_cast<long long>(s.retries),
                   std::string(s.speculated ? "yes" : "no"),
                   std::string(s.resumed ? "yes" : "no"), s.worker,
                   s.seconds, static_cast<long long>(s.rows)});
  }
  return table;
}

DriveReport drive(const ShardPlan& plan, const DriveOptions& options,
                  std::ostream& out, const DriveEventFn& on_event) {
  WDAG_REQUIRE(!options.wdag_binary.empty(),
               "drive: options.wdag_binary must be set");
  WDAG_REQUIRE(!options.work_dir.empty(),
               "drive: options.work_dir must be set");
  WDAG_REQUIRE(options.timeout_seconds >= 0.0,
               "drive: timeout_seconds must be >= 0");
  WDAG_REQUIRE(options.backoff_seconds >= 0.0,
               "drive: backoff_seconds must be >= 0");
  WDAG_REQUIRE(options.speculate_factor >= 0.0,
               "drive: speculate_factor must be >= 0");
  WDAG_REQUIRE(options.speculate_min_completed >= 1,
               "drive: speculate_min_completed must be >= 1");

  const std::size_t shard_count = plan.shards();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t default_local_slots =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   shard_count, hw == 0 ? 1 : hw));

  // The transport pool: remote workers first (dispatch prefers them),
  // the local subprocess pool last. With remotes configured, workers == 0
  // means "no local slots" — unless every remote goes unhealthy, when the
  // degradation path below raises emergency local slots rather than
  // stalling the drive.
  std::vector<std::unique_ptr<WorkerTransport>> transports;
  TcpTransport::Config tcp_config;
  tcp_config.connect_timeout_ms = options.connect_timeout_ms;
  tcp_config.probe_interval_seconds = options.probe_interval_seconds;
  tcp_config.probe_timeout_ms = options.probe_timeout_ms;
  tcp_config.probe_miss_budget = options.probe_miss_budget;
  for (const std::string& endpoint : options.remote_workers) {
    transports.push_back(std::make_unique<TcpTransport>(endpoint,
                                                        tcp_config));
  }
  const std::size_t remote_count = transports.size();
  std::size_t local_slots = options.workers;
  if (local_slots == 0 && remote_count == 0) {
    local_slots = default_local_slots;
  }
  LocalTransport::Config local_config;
  local_config.wdag_binary = options.wdag_binary;
  local_config.slots = local_slots;
  local_config.worker_threads = options.worker_threads;
  auto local_owned = std::make_unique<LocalTransport>(local_config);
  LocalTransport* local = local_owned.get();
  transports.push_back(std::move(local_owned));

  const std::string journal_path =
      options.work_dir + "/" + std::string(kDriveJournalFile);
  const auto committed_rel = [](std::size_t s) {
    return "shard." + std::to_string(s) + ".csv";
  };

  // Crash-test hook: SIGKILL ourselves right after the Nth completion of
  // THIS run is journaled — no cleanup, no flush, no destructors. The
  // honest way to prove the journal + committed outputs alone are enough
  // to resume. Never forwarded to children.
  std::size_t kill_driver_after = 0;
  if (const char* v = std::getenv("WDAG_DRIVE_KILL_DRIVER_AFTER")) {
    kill_driver_after = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  }

  const Hook fail_hook = read_hook("WDAG_DRIVE_FAIL_SHARD");
  const Hook slow_hook = read_hook("WDAG_DRIVE_SLOW_SHARD");

  util::Timer timer;
  const auto now = [&timer] { return timer.seconds(); };
  const auto emit = [&](std::string kind, std::size_t shard,
                        std::size_t attempt, double elapsed, int exit_code,
                        std::string detail, std::string worker = "") {
    if (!on_event) return;
    DriveEvent ev;
    ev.kind = std::move(kind);
    ev.shard = shard;
    ev.attempt = attempt;
    ev.at_seconds = now();
    ev.elapsed_seconds = elapsed;
    ev.exit_code = exit_code;
    ev.worker = std::move(worker);
    ev.detail = std::move(detail);
    on_event(ev);
  };

  std::vector<ShardState> st(shard_count);
  std::vector<std::size_t> in_flight(transports.size(), 0);
  std::size_t live_total = 0;
  std::size_t completed = 0;
  std::size_t committed_this_run = 0;
  std::size_t speculations = 0;
  std::size_t resumed_count = 0;
  std::size_t quarantines = 0;
  std::size_t redispatches = 0;
  bool degraded = false;
  std::vector<double> win_times;
  std::size_t next_flush = 0;  ///< contiguous streaming frontier
  bool header_written = false;

  // Worker-health bookkeeping: the length of the current run of
  // consecutive failed attempts, and whether it spans >= 2 distinct
  // shards (systemic — a sick machine — rather than one bad shard).
  std::size_t consec_failures = 0;
  std::size_t consec_first_shard = 0;
  bool consec_distinct = false;
  double quarantine_until = 0.0;
  std::string systemic_error;

  // Declared before anything that may throw, so the sweep always runs.
  std::vector<std::string> scratch_files;
  std::vector<std::string> committed_files;
  CleanupGuard cleanup{&scratch_files, &committed_files, options.keep_outputs,
                       /*success=*/false};

  SignalScope signal_scope;

  // -------------------------------------------------------------------
  // Resume pre-pass: replay the journal, re-validating every claimed
  // completion from scratch. Entries are hints — only an output that
  // passes read_shard_csv + plan identity + the journaled row count
  // marks its shard done; anything else re-runs.
  // -------------------------------------------------------------------
  bool journal_reusable = false;
  if (options.resume) {
    std::ifstream jf(journal_path);
    std::string line;
    bool saw_header = false;
    while (jf.good() && std::getline(jf, line)) {
      if (line.empty()) continue;
      if (!saw_header) {
        saw_header = true;
        minjson::JsonValue header;
        try {
          header = minjson::JsonParser(line, "drive journal").parse();
        } catch (const std::exception& e) {
          // A torn header means the previous drive died before its first
          // fsync finished — nothing recoverable, nothing lost: run fresh.
          emit("resume-skip", 0, 0, 0.0, 0,
               std::string("journal header unreadable (") + e.what() +
                   "); starting fresh");
          break;
        }
        // A PARSABLE header that disagrees is a hard error: silently
        // resuming a foreign plan's work dir would merge foreign rows.
        const std::string magic =
            minjson::req_str(header, "journal", "drive journal");
        WDAG_REQUIRE(magic == "wdag-drive",
                     "drive journal '" + journal_path +
                         "': not a wdag drive journal (magic '" + magic +
                         "')");
        const std::uint64_t version =
            minjson::req_u64(header, "version", "drive journal");
        WDAG_REQUIRE(
            version == static_cast<std::uint64_t>(kDriveJournalVersion),
            "drive journal '" + journal_path + "': unsupported version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kDriveJournalVersion) + ")");
        const std::uint64_t journal_plan =
            minjson::req_hex(header, "plan", "drive journal");
        WDAG_REQUIRE(journal_plan == plan.id(),
                     "drive journal '" + journal_path +
                         "' belongs to a different plan (journal " +
                         minjson::hex16(journal_plan) + ", this drive " +
                         minjson::hex16(plan.id()) +
                         ") — use a fresh --work-dir or drop --resume");
        journal_reusable = true;
        continue;
      }
      std::size_t shard = shard_count;  // invalid until parsed
      try {
        const minjson::JsonValue entry =
            minjson::JsonParser(line, "drive journal").parse();
        shard = static_cast<std::size_t>(
            minjson::req_u64(entry, "shard", "drive journal"));
        WDAG_REQUIRE(shard < shard_count,
                     "journal entry names shard " + std::to_string(shard) +
                         " of a " + std::to_string(shard_count) +
                         "-shard plan");
        const std::uint64_t request =
            minjson::req_hex(entry, "request", "drive journal");
        WDAG_REQUIRE(request == plan.request_hash(),
                     "journal entry request hash mismatch");
        if (st[shard].done) continue;  // duplicate entry (older resume)
        const std::size_t rows = static_cast<std::size_t>(
            minjson::req_u64(entry, "rows", "drive journal"));
        const double seconds =
            minjson::req_double(entry, "seconds", "drive journal");
        const std::string rel =
            minjson::req_str(entry, "path", "drive journal");
        const std::string path = options.work_dir + "/" + rel;
        ShardCsv csv = read_shard_csv_file(path);
        WDAG_REQUIRE(csv.manifest.plan_id == plan.id() &&
                         csv.manifest.shard == shard,
                     "committed output '" + path +
                         "' belongs to a different plan or shard");
        WDAG_REQUIRE(csv.row_count == rows,
                     "committed output '" + path + "' has " +
                         std::to_string(csv.row_count) +
                         " rows, journal recorded " + std::to_string(rows));
        ShardState& sh = st[shard];
        sh.result = std::move(csv);
        sh.row_count = sh.result.row_count;
        sh.win_seconds = seconds;
        sh.worker = "journal";
        sh.resumed = true;
        sh.done = true;
        sh.pending = false;
        ++completed;
        ++resumed_count;
        // Seed the speculation median with the recorded runtime so a
        // resumed drive with zero fresh completions never takes a
        // median of nothing.
        if (seconds > 0.0) win_times.push_back(seconds);
        committed_files.push_back(path);
        emit("resume", shard, 0, seconds, 0,
             "validated " + rel + " (" + std::to_string(sh.row_count) +
                 " rows)");
      } catch (const std::exception& e) {
        emit("resume-skip", shard < shard_count ? shard : 0, 0, 0.0, 0,
             e.what());
      }
    }
  }

  // Materialize the manifests the workers will run — atomically, so a
  // manifest a worker can open is always complete. The JSON line is kept
  // in memory too: remote transports send it down the wire verbatim.
  std::vector<std::string> manifest_paths(shard_count);
  std::vector<std::string> manifest_jsons(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    manifest_paths[s] =
        options.work_dir + "/manifest." + std::to_string(s) + ".json";
    manifest_jsons[s] = manifest_to_json(plan.manifest(s));
    util::write_file_atomic(manifest_paths[s], manifest_jsons[s] + "\n");
    scratch_files.push_back(manifest_paths[s]);
  }

  // The recovery journal: append to a verified same-plan journal, start
  // fresh (truncate + header) otherwise.
  util::DurableAppendFile journal(journal_path, /*truncate=*/!journal_reusable);
  if (!journal_reusable) journal.append_line(journal_header_json(plan));
  committed_files.push_back(journal_path);

  const auto kill_all = [&st, &live_total, &in_flight] {
    for (ShardState& sh : st) {
      for (Attempt& a : sh.live) {
        if (!a.handle) continue;  // moved-from husk
        a.handle->kill();
        a.handle->wait();
        --live_total;
        --in_flight[a.transport];
      }
      sh.live.clear();
    }
  };

  /// The first healthy transport with a free slot, remote-first;
  /// transports.size() when every slot is busy or unhealthy.
  const auto pick_transport = [&]() -> std::size_t {
    for (std::size_t t = 0; t < transports.size(); ++t) {
      if (!transports[t]->healthy()) continue;
      if (in_flight[t] < transports[t]->slots()) return t;
    }
    return transports.size();
  };

  const long self_pid = util::current_process_id();
  const auto dispatch = [&](std::size_t s, std::size_t transport,
                            bool speculative) {
    ShardState& sh = st[s];
    const std::size_t number = sh.attempts;
    // Attempts write to crash-unique tmp paths: the committed name
    // shard.<s>.csv appears only through the post-validation
    // fsync+rename, and an orphan of a crashed previous driver
    // (different pid) can never collide with this drive's attempts.
    AttemptSpec spec;
    spec.shard = s;
    spec.number = number;
    spec.manifest_path = manifest_paths[s];
    spec.manifest_json = manifest_jsons[s];
    spec.out_path = options.work_dir + "/shard." + std::to_string(s) + ".a" +
                    std::to_string(number) + ".p" +
                    std::to_string(self_pid) + ".csv.tmp";

    // Fault-injection hooks reach attempt 0 of their target shard only;
    // every other child gets them stripped so retries succeed. The
    // driver-kill hook is stripped from every child unconditionally.
    // (Remote attempts carry no env: worker-side hooks live in the
    // worker's own environment.)
    spec.subprocess.unset_env = {"WDAG_DRIVE_FAIL_SHARD",
                                 "WDAG_DRIVE_SLOW_SHARD",
                                 "WDAG_DRIVE_KILL_DRIVER_AFTER"};
    if (fail_hook.set && fail_hook.shard == s && number == 0) {
      spec.subprocess.env.emplace_back(fail_hook.name, fail_hook.value);
    }
    if (slow_hook.set && slow_hook.shard == s && number == 0) {
      spec.subprocess.env.emplace_back(slow_hook.name, slow_hook.value);
    }

    Attempt a{transports[transport]->start(spec), transport, number, now(),
              spec.out_path, speculative};
    scratch_files.push_back(a.out_path);
    ++sh.attempts;
    ++live_total;
    ++in_flight[transport];
    emit(speculative ? "speculate" : "dispatch", s, number, 0.0, 0,
         a.handle->describe(), transports[transport]->id());
    sh.live.push_back(std::move(a));
  };

  // One failed attempt just landed on shard `s`: extend/reset the
  // consecutive-failure run and derive quarantine / fail-fast state.
  const auto note_failure = [&](std::size_t s) {
    if (consec_failures == 0) {
      consec_first_shard = s;
      consec_distinct = false;
    } else if (s != consec_first_shard) {
      consec_distinct = true;
    }
    ++consec_failures;
    // Failures confined to ONE shard are the retry budget's business.
    if (!consec_distinct) return;
    if (options.fail_fast > 0 && consec_failures >= options.fail_fast &&
        systemic_error.empty()) {
      systemic_error =
          "drive: systemic failure — " + std::to_string(consec_failures) +
          " consecutive failed attempts across distinct shards (fail-fast "
          "threshold " +
          std::to_string(options.fail_fast) +
          "); last error: " + st[s].last_error;
      return;
    }
    if (consec_failures >= kQuarantineAfter) {
      const unsigned shift = static_cast<unsigned>(
          std::min<std::size_t>(consec_failures - kQuarantineAfter, 10));
      const double pause =
          options.backoff_seconds * static_cast<double>(1ULL << shift);
      quarantine_until = std::max(quarantine_until, now() + pause);
      ++quarantines;
      emit("quarantine", s, 0, 0.0, 0,
           std::to_string(consec_failures) +
               " consecutive failures across distinct shards; pausing "
               "dispatch " +
               fmt_seconds(pause) + "s");
    }
  };

  try {
    for (;;) {
      // 0. Graceful shutdown: kill the children and leave a resumable
      //    work dir (the journal is already durable line by line).
      if (g_drive_signal != 0) {
        const int sig = static_cast<int>(g_drive_signal);
        emit("interrupt", 0, 0, 0.0, 0,
             "signal " + std::to_string(sig) + " after " +
                 std::to_string(completed) + "/" +
                 std::to_string(shard_count) + " shard(s)");
        kill_all();
        throw DriveInterrupted(
            sig, "drive: interrupted by signal " + std::to_string(sig) +
                     " with " + std::to_string(completed) + "/" +
                     std::to_string(shard_count) +
                     " shard(s) complete; completed shards are journaled in "
                     "'" +
                     options.work_dir + "' — re-run with --resume");
      }

      // 0b. Remote-worker health: drain the probers' events. A worker
      //     crossing into unhealthy has its in-flight attempts killed
      //     and re-queued on the spot — WITHOUT touching sh.failures or
      //     the retry budget: the shard did nothing wrong, its machine
      //     did. When the LAST remote goes dark and no local slots were
      //     configured, raise emergency local slots instead of stalling.
      for (std::size_t t = 0; t < remote_count; ++t) {
        for (const ProbeEvent& pe : transports[t]->drain_probe_events()) {
          const char* kind = pe.kind == ProbeEvent::Kind::kMiss ? "probe-miss"
                             : pe.kind == ProbeEvent::Kind::kUnhealthy
                                 ? "unhealthy"
                                 : "recovered";
          emit(kind, 0, 0, 0.0, 0, pe.detail, transports[t]->id());
          if (pe.kind != ProbeEvent::Kind::kUnhealthy) continue;
          for (ShardState& sh : st) {
            std::vector<Attempt> keep;
            keep.reserve(sh.live.size());
            for (Attempt& a : sh.live) {
              if (a.transport != t) {
                keep.push_back(std::move(a));
                continue;
              }
              a.handle->kill();
              a.handle->wait();
              --live_total;
              --in_flight[t];
              ++redispatches;
              const std::size_t shard_idx =
                  static_cast<std::size_t>(&sh - st.data());
              emit("redispatch", shard_idx, a.number,
                   now() - a.started_at, 0,
                   "worker went unhealthy mid-attempt; re-queueing "
                   "without burning retry budget",
                   transports[t]->id());
              if (a.speculative) {
                sh.speculated = false;  // may speculate again elsewhere
              } else if (!sh.done) {
                sh.pending = true;
                sh.ready_at = 0.0;  // no backoff: the shard is innocent
              }
            }
            sh.live = std::move(keep);
          }
        }
      }
      if (remote_count > 0 && !degraded && local->slots() == 0) {
        bool any_remote_healthy = false;
        for (std::size_t t = 0; t < remote_count; ++t) {
          if (transports[t]->healthy()) any_remote_healthy = true;
        }
        if (!any_remote_healthy) {
          degraded = true;
          local->set_slots(default_local_slots);
          emit("degrade", 0, 0, 0.0, 0,
               "every remote worker is unhealthy; raising " +
                   std::to_string(default_local_slots) +
                   " emergency local slot(s)",
               local->id());
        }
      }

      // 1. Stream the merge frontier FIRST: an all-resumed drive must
      //    emit its bytes before the exit check below. Contiguous shards
      //    flush in global order as they land (striped plans interleave
      //    after the last shard).
      if (plan.layout() == ShardLayout::kContiguous) {
        while (next_flush < shard_count && st[next_flush].done) {
          if (!header_written) {
            out << shard_csv_column_header() << '\n';
            header_written = true;
          }
          out << st[next_flush].result.rows;
          st[next_flush].result.rows.clear();
          st[next_flush].result.rows.shrink_to_fit();
          ++next_flush;
        }
      }

      if (completed >= shard_count) break;

      // 2+3. Dispatch and speculation both pause while a quarantine
      //      window is open — systemic failures gate ALL new work, not
      //      one shard's.
      if (now() >= quarantine_until) {
        // 2. Dispatch every shard that wants an attempt and cleared its
        //    backoff, while healthy transport slots remain (remote slots
        //    are preferred — pick_transport scans them first).
        for (std::size_t s = 0; s < shard_count; ++s) {
          ShardState& sh = st[s];
          if (sh.done || !sh.pending || now() < sh.ready_at) continue;
          const std::size_t t = pick_transport();
          if (t == transports.size()) break;  // all slots busy/unhealthy
          sh.pending = false;
          dispatch(s, t, /*speculative=*/false);
        }

        // 3. Speculative re-execution of stragglers: once enough shards
        //    have finished to estimate a median, a shard whose sole
        //    attempt has overrun speculate_factor x that median gets one
        //    duplicate; whichever attempt validates first wins.
        if (options.speculate_factor > 0.0 &&
            completed >= options.speculate_min_completed &&
            !win_times.empty()) {
          const double median = median_of(win_times);
          const double threshold = options.speculate_factor * median;
          for (std::size_t s = 0; s < shard_count; ++s) {
            ShardState& sh = st[s];
            if (sh.done || sh.speculated || sh.live.size() != 1) continue;
            const double running = now() - sh.live.front().started_at;
            if (running <= threshold) continue;
            const std::size_t t = pick_transport();
            if (t == transports.size()) break;
            sh.speculated = true;
            ++speculations;
            dispatch(s, t, /*speculative=*/true);
          }
        }
      }

      // 4. Poll live attempts: reap exits, validate + commit + journal
      //    outputs, enforce the timeout, settle races.
      for (std::size_t s = 0; s < shard_count; ++s) {
        ShardState& sh = st[s];
        if (sh.live.empty()) continue;
        std::vector<Attempt> still_running;
        still_running.reserve(sh.live.size());
        for (Attempt& a : sh.live) {
          const std::string worker_id = transports[a.transport]->id();
          if (sh.done) {  // a sibling attempt won this very pass
            a.handle->kill();
            a.handle->wait();
            --live_total;
            --in_flight[a.transport];
            continue;
          }
          std::optional<int> code = a.handle->poll();
          const double ran = now() - a.started_at;
          if (!code.has_value()) {
            if (options.timeout_seconds > 0.0 &&
                ran > options.timeout_seconds) {
              a.handle->kill();
              a.handle->wait();
              --live_total;
              --in_flight[a.transport];
              ++sh.failures;
              sh.last_error = "timed out after " + fmt_seconds(ran) + "s";
              emit("timeout", s, a.number, ran, 0, sh.last_error,
                   worker_id);
              note_failure(s);
            } else {
              still_running.push_back(std::move(a));
            }
            continue;
          }
          --live_total;
          --in_flight[a.transport];
          std::string why;
          if (*code == 0) {
            // Exit 0 alone proves nothing — only a fully validated
            // shard CSV of THIS plan may commit and merge.
            try {
              ShardCsv csv = read_shard_csv_file(a.out_path);
              WDAG_REQUIRE(csv.manifest.plan_id == plan.id() &&
                               csv.manifest.shard == s,
                           "shard output '" + a.out_path +
                               "' belongs to a different plan or shard");
              // Atomic commit: fsync the validated bytes, rename into
              // the final name, fsync the directory, THEN journal. A
              // crash at any point leaves either no committed file or a
              // complete one — never a torn one; a journal line always
              // refers to an already-committed file.
              const std::string rel = committed_rel(s);
              const std::string final_path = options.work_dir + "/" + rel;
              util::commit_file(a.out_path, final_path);
              committed_files.push_back(final_path);
              journal.append_line(journal_entry_json(
                  s, a.number, csv.row_count, ran, rel,
                  plan.request_hash()));
              sh.result = std::move(csv);
              sh.row_count = sh.result.row_count;
              sh.win_seconds = ran;
              sh.worker = worker_id;
              sh.done = true;
              ++completed;
              ++committed_this_run;
              win_times.push_back(ran);
              consec_failures = 0;  // a success breaks the sick-run
              consec_distinct = false;
              emit("complete", s, a.number, ran, 0,
                   a.speculative ? "speculative attempt won" : "",
                   worker_id);
              if (kill_driver_after > 0 &&
                  committed_this_run >= kill_driver_after) {
#ifdef SIGKILL
                std::raise(SIGKILL);
#endif
                std::abort();
              }
              continue;
            } catch (const std::exception& e) {
              why = e.what();
            }
          } else {
            why = a.handle->failure_detail();
            if (why.empty()) why = "exit code " + std::to_string(*code);
          }
          ++sh.failures;
          sh.last_error = why;
          emit("exit", s, a.number, ran, code.value_or(0), why, worker_id);
          note_failure(s);
        }
        sh.live = std::move(still_running);

        // 5. Every attempt of this shard has failed: retry with backoff,
        //    or give up — a drive never produces a partial merge (but a
        //    failed drive's committed shards stay resumable).
        if (!sh.done && sh.live.empty() && !sh.pending) {
          if (sh.failures > options.max_retries) {
            kill_all();
            throw InternalError(
                "drive: shard " + std::to_string(s) + " failed " +
                std::to_string(sh.failures) + " attempt(s) (max_retries=" +
                std::to_string(options.max_retries) +
                "); last error: " + sh.last_error +
                (completed > 0
                     ? "; completed shards are journaled in '" +
                           options.work_dir +
                           "' — re-run with --resume after fixing the cause"
                     : ""));
          }
          const unsigned shift = static_cast<unsigned>(
              std::min<std::size_t>(sh.failures - 1, 20));
          const double backoff =
              options.backoff_seconds * static_cast<double>(1ULL << shift);
          sh.pending = true;
          sh.ready_at = now() + backoff;
          ++sh.retries;
          emit("retry", s, sh.attempts, 0.0, 0,
               "backoff " + fmt_seconds(backoff) + "s");
        }
      }

      // The fail-fast abort is deferred to here: throwing mid-poll would
      // leave moved-from attempt husks in the shard states.
      if (!systemic_error.empty()) {
        kill_all();
        throw InternalError(
            systemic_error +
            (completed > 0 ? "; completed shards are journaled in '" +
                                 options.work_dir +
                                 "' — re-run with --resume on a healthy "
                                 "machine"
                           : ""));
      }

      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // When the last completion is a speculative win, its straggling rival
    // was parked in still_running BEFORE the winner validated and the
    // loop exited without another poll pass — reap it (and any sibling
    // losers) so no orphan outlives the drive holding inherited fds.
    kill_all();
  } catch (...) {
    kill_all();
    throw;
  }

  if (plan.layout() == ShardLayout::kStriped) {
    // The full revalidating merge (plan identity, coverage, interleave).
    std::vector<ShardCsv> all;
    all.reserve(shard_count);
    for (ShardState& sh : st) all.push_back(std::move(sh.result));
    out << merge_shard_csv(all);
  }
  out.flush();

  cleanup.success = true;

  DriveReport report;
  report.shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const ShardState& sh = st[s];
    report.shards.push_back({s, sh.attempts, sh.retries, sh.speculated,
                             sh.resumed, sh.win_seconds, sh.row_count,
                             sh.worker});
    report.retries += sh.retries;
  }
  report.speculations = speculations;
  report.resumed = resumed_count;
  report.quarantines = quarantines;
  report.redispatches = redispatches;
  report.wall_seconds = now();
  emit("done", 0, 0, report.wall_seconds, 0,
       std::to_string(shard_count) + " shard(s), " +
           std::to_string(report.retries) + " retry(ies), " +
           std::to_string(report.speculations) + " speculation(s), " +
           std::to_string(report.resumed) + " resumed, " +
           std::to_string(report.redispatches) + " redispatch(es)");
  return report;
}

}  // namespace wdag::core
