#pragma once
// Shared pieces of the wdag benchmark: command-line arguments, the
// metric record every workload fills, small statistics helpers, and the
// in-memory span log of the traced run.
//
// A run prints a human-readable metric table first and the one-line
// JSON result last; see run_workload in main.cpp.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `since`.
double seconds_since(Clock::time_point since);

/// Parsed command line of the benchmark binary.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string wdag_cli;  ///< the `wdag` executable (serve-open spawns it)
  std::string work_dir;  ///< scratch files: server port files, spans
};

/// A metric of the benchmark: its name and unit. BENCHMARK.json lists
/// the same names and units (`perfbench --list-metrics` prints these).
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported with tracing off, by every workload.
extern const std::vector<MetricDef> kEndToEnd;
/// Reported by the traced run. A layer a workload bypasses reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// What a workload hands back to main: the answer checks and the
/// metrics of its mode (end-to-end untraced, per-layer traced).
struct Outcome {
  std::size_t attempted = 0;  ///< answers produced by the timed work
  std::size_t failed = 0;     ///< failed, rejected or check-rejected
  std::vector<std::string> problems;  ///< one line per check violation
  std::map<std::string, double> metrics;
  /// Lines printed above the metric table (sample counts, mixes).
  std::vector<std::string> notes;

  void add(const std::string& name, double value) { metrics[name] = value; }
  /// Records a violation; the first few are printed verbatim.
  void fail(std::size_t count, std::string what) {
    failed += count;
    problems.push_back(std::move(what));
  }
};

/// Median of `v` (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> v);

/// Nearest-rank percentile `q` in [0, 1] of `v`; 0 if empty.
double percentile(std::vector<double> v, double q);

/// Peak resident set size (VmHWM) of process `pid` in MB, or of this
/// process for pid 0. Returns 0 when /proc is unreadable.
double peak_rss_mb(long pid = 0);

/// Keeps every CPU busy for `seconds` (this thread included), so a run
/// starts on CPUs the host has already scheduled back in: after an idle
/// spell a virtual machine's CPUs can run far below speed for a second.
void warm_cpus(double seconds);

/// Sets this thread's timer slack to 1 ns, so sleeps wake on time
/// instead of up to 50 us late (the default slack).
void tight_timer_slack();

/// The per-instance seed of item `index` in a run seeded with `seed`.
std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index);

/// Spans of the traced run, kept in memory and written out at the end.
/// Each span has a name, start, end, the index of its parent span (or
/// -1) and the id of the instance or request it belongs to.
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< a string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t id;
  };

  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Opens a span and returns its index; close it with end().
  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t id);
  void end(std::int64_t index);

  /// Records a finished span with explicit times.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::uint64_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the time its children cover) summed per
  /// name, in microseconds, with the number of spans of that name.
  struct Total {
    double self_us = 0.0;
    double total_us = 0.0;
    std::size_t calls = 0;
  };
  [[nodiscard]] Total total(const std::string& name) const;

  /// Writes every span as CSV (name,start_ns,end_ns,parent,id) to
  /// `path`; returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

  static std::int64_t now_ns();

 private:
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::int64_t parent, std::uint64_t id)
      : log_(log), index_(log.begin(name, parent, id)) {}
  ~Scoped() { log_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

/// Workload entry points (batch.cpp, serve.cpp).
Outcome run_batch_workload(const Args& args);
Outcome run_serve_workload(const Args& args);

/// True when `name` is a batch workload.
bool is_batch_workload(const std::string& name);

}  // namespace perfbench
