#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include <sys/prctl.h>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"throughput_ips", "inst/s"}, {"request_p50_ms", "ms"},
    {"proven_share", "share"},    {"wavelength_load_ratio", "ratio"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"request_p99_ms", "ms"},
    {"max_rate_rps", "req/s"},
    {"gen.instance_us", "us"},
    {"dag.classify_us", "us"},
    {"dag.classify_share", "share"},
    {"core.split_merge_us", "us"},
    {"core.split_merge_share", "share"},
    {"core.split_merge.levels", "count"},
    {"core.split_merge.fixups", "count"},
    {"core.theorem1_us", "us"},
    {"core.theorem1.chain_recolorings", "count"},
    {"core.dispatch.theorem1_share", "share"},
    {"core.dispatch.split_merge_share", "share"},
    {"core.dispatch.dsatur_share", "share"},
    {"core.dispatch.exact_share", "share"},
    {"core.batch.efficiency", "ratio"},
    {"conflict.build_us", "us"},
    {"conflict.edges", "edges/build"},
    {"conflict.dsatur_us", "us"},
    {"conflict.dsatur_share", "share"},
    {"conflict.exact_us", "us"},
    {"conflict.exact_share", "share"},
    {"conflict.exact_nodes", "count"},
    {"conflict.exact_proven_share", "share"},
    {"conflict.validate_us", "us"},
    {"paths.max_load_us", "us"},
    {"api.solve_p50_us", "us"},
    {"api.solve_p99_us", "us"},
    {"api.self_share", "share"},
    {"api.sink_us", "us"},
    {"api.submit_us", "us"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.overhead_p50_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.emit_us", "us"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"loadgen.late_p50_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_share", "share"},
};

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double peak_rss_mb(long pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void warm_cpus(double seconds) {
  const Clock::time_point start = Clock::now();
  auto spin = [&] {
    volatile std::uint64_t x = 0;
    while (seconds_since(start) < seconds) {
      for (int i = 0; i < 1000; ++i) x = x + 1;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    threads.emplace_back(spin);
  }
  spin();
  for (std::thread& t : threads) t.join();
}

void tight_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer over (seed, index): independent streams per item.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::int64_t SpanLog::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t SpanLog::begin(const char* name, std::int64_t parent,
                            std::uint64_t id) {
  spans_.push_back({name, now_ns(), 0, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::int64_t parent, std::uint64_t id) {
  spans_.push_back({name, start_ns, end_ns, parent, id});
}

SpanLog::Total SpanLog::total(const std::string& name) const {
  // Children never overlap their siblings here (one thread per log), so
  // the time they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  Total t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const double span_us =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    t.total_us += span_us;
    t.self_us += span_us - static_cast<double>(child_ns[i]) / 1e3;
    ++t.calls;
  }
  return t;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,start_ns,end_ns,parent,id\n";
  for (const Span& s : spans_) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
        << ',' << s.id << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
