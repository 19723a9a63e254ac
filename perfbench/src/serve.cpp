// The serve-open workload: a separate `wdag serve --threads 1` process
// receives tiny solve requests on an open-loop schedule.
//
// Request i is due at t0 + i / rate whatever happened to the earlier
// ones. One writer (this thread) writes each line at its due time,
// round-robin over persistent connections; one reader thread per
// connection reads the replies, which the protocol returns in order per
// connection. Latency runs from the due time to the full response line,
// so a stall is charged to every request it delays.
//
// Phases: untimed warm-up, then a fixed rate well below the knee. The
// traced run adds the same rate with spans recorded, and a fixed ladder
// of rates for max_rate_rps. Every run ends with one stats request and
// SIGTERM, and checks the drain summary; every answer is then compared
// with an in-process Engine::submit of the same line.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/engine.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr double kFixedRate = 6000.0;     ///< req/s of the latency phase
constexpr double kWindowSeconds = 0.5;    ///< p99 is taken per window
constexpr double kLatencyLimitMs = 25.0;  ///< p99 limit of a ladder step
constexpr double kStepSeconds = 0.25;     ///< duration of a ladder step
constexpr std::size_t kConnections = 3;   ///< with the writer: 4 threads
constexpr std::size_t kSetups = 15;       ///< server spawns; median reported
constexpr double kWarmupSeconds = 0.5;    ///< fixed rate before measuring
constexpr std::size_t kWarmupCount = 2000;  ///< solves in the set-up batch
/// Ladder rates in req/s, 10% apart.
std::vector<double> ladder() {
  std::vector<double> rates;
  for (double r = 2000.0; r <= 100000.0; r *= 1.1) {
    rates.push_back(static_cast<double>(static_cast<long>(r / 100.0) * 100));
  }
  return rates;
}

// --- the server process ------------------------------------------------------

/// A running `wdag serve` child; stopped and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& wdag_cli, const std::string& dir, int n)
      : port_file_(dir + "/serve-" + std::to_string(n) + ".port"),
        log_file_(dir + "/serve-" + std::to_string(n) + ".log") {
    std::remove(port_file_.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_file_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    std::vector<std::string> argv_s = {wdag_cli,    "serve",   "--threads",
                                       "1",         "--port",  "0",
                                       "--port-file", port_file_};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, wdag_cli.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + wdag_cli);
    }
  }
  ~ServerProcess() { kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Waits for the port file; throws after 30 s.
  int wait_port() {
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < 30.0) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) return port;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("wdag serve exited during start-up");
      }
      // Yield rather than sleep: a sleep can overshoot by milliseconds
      // on a virtual machine, which would swamp a set-up this short.
      std::this_thread::yield();
    }
    throw std::runtime_error("wdag serve did not write its port file");
  }

  /// SIGKILL and wait: for the set-up repetitions, which are done.
  void kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  /// SIGTERM, wait, and return (exit code, everything it printed).
  std::pair<int, std::string> stop() {
    int code = -1;
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      pid_ = -1;
    }
    std::ifstream in(log_file_);
    std::stringstream text;
    text << in.rdbuf();
    return {code, text.str()};
  }

  [[nodiscard]] long pid() const { return pid_; }

 private:
  std::string port_file_;
  std::string log_file_;
  pid_t pid_ = -1;
};

// --- requests and replies ----------------------------------------------------

/// Request line i: a tree or random-upp solve with its own seed. The
/// random-upp requests carry at most 16 paths, so every request is
/// tiny: at the default 32, one of some 2.5 million upp-mix instances
/// measured ran exact certification to its node budget (upp-mix keeps
/// that tail), and one such solve would hold the only worker for 18 s.
std::string request_line(std::uint64_t seed, std::size_t i) {
  wdag::serve::WireRequest r;
  r.kind = wdag::serve::RequestKind::kSolve;
  r.id = std::to_string(i);
  const std::uint64_t s = item_seed(seed, i);
  r.gen.family = (s >> 17) % 2 == 0 ? "tree" : "random-upp";
  if (r.gen.family == "random-upp") r.gen.params.paths = 16;
  r.gen.seed = s;
  return wdag::serve::request_to_json(r);
}

/// The set-up's warm-up request: one batch of kWarmupCount tiny solves.
/// It warms the engine the way a long-running server is warm, and makes
/// set-up mostly solve work rather than a few thread wake-ups, which on
/// a virtual machine vary by milliseconds from run to run.
std::string warmup_line(std::uint64_t seed) {
  wdag::serve::WireRequest r;
  r.kind = wdag::serve::RequestKind::kBatch;
  r.id = "warm-up";
  r.gen.family = "random-upp";
  r.gen.params.paths = 16;
  r.gen.seed = seed;
  r.count = kWarmupCount;
  return wdag::serve::request_to_json(r);
}

/// The number after "key": in a flat JSON line (nested keys are unique
/// in every line read here); nullopt when absent.
std::optional<double> json_number(const std::string& line,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) {
    if (line.compare(at + needle.size(), 4, "true") == 0) return 1.0;
    if (line.compare(at + needle.size(), 5, "false") == 0) return 0.0;
    return std::nullopt;
  }
  return v;
}

bool is_ok(const std::string& line) {
  return line.find("\"status\":\"ok\"") != std::string::npos;
}

// --- the open loop -------------------------------------------------------------

/// A generator connection: TCP_NODELAY, so each line leaves when it is
/// written (Nagle would hold a line while an earlier one is unacked),
/// and independent write and read sides, so one thread writes on
/// schedule while another reads the in-order replies.
///
/// Every reply is ACKed as soon as it is read (TCP_QUICKACK, which the
/// kernel clears again, so it is set after each recv). `wdag serve`
/// leaves Nagle on: a reply written while the previous one is unacked
/// waits for that ACK, and a delayed ACK rides on the connection's next
/// request, a whole request gap later. One late reply would start a
/// chain in which every later reply waits for the next request.
class Connection {
 public:
  explicit Connection(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 ||
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to wdag serve");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes `line` (which ends in '\n'); false when the peer is gone.
  bool write(const std::string& line) {
    std::size_t done = 0;
    while (done < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + done, line.size() - done,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads the next line into `line`; false on close or `timeout_ms`
  /// without a complete line.
  bool read_line(std::string& line, int timeout_ms) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;       ///< bytes past the last returned line
  std::size_t scanned_ = 0;  ///< buffer_ prefix known to hold no '\n'
};

struct Phase {
  std::vector<std::int64_t> due_ns, sent_ns, recv_ns;
  std::vector<std::string> replies;
  std::size_t missing = 0;  ///< replies that never arrived

  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < due_ns.size(); ++i) {
      if (recv_ns[i] > 0) {
        v.push_back(static_cast<double>(recv_ns[i] - due_ns[i]) / 1e6);
      }
    }
    return v;
  }
  [[nodiscard]] std::vector<double> late_ms() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < due_ns.size(); ++i) {
      v.push_back(static_cast<double>(sent_ns[i] - due_ns[i]) / 1e6);
    }
    return v;
  }
};

/// Sends lines[first, first + n) at `rate` per second over `conns`.
/// With `trace` (one log for the writer, then one per reader), every
/// thread records its spans as it goes: "loadgen.send" (due -> written)
/// and "request" (due -> reply read), keyed by request id.
Phase open_loop(std::vector<std::unique_ptr<Connection>>& conns,
                const std::vector<std::string>& lines, std::size_t first,
                std::size_t n, double rate,
                std::vector<SpanLog>* trace = nullptr) {
  Phase p;
  p.due_ns.resize(n);
  p.sent_ns.resize(n, 0);
  p.recv_ns.resize(n, 0);
  p.replies.resize(n);
  const std::int64_t t0 = SpanLog::now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    p.due_ns[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) *
                                                 1e9 / rate);
  }
  std::vector<std::size_t> missing(conns.size(), 0);
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    readers.emplace_back([&, c] {
      tight_timer_slack();
      std::string line;
      for (std::size_t i = c; i < n; i += conns.size()) {
        if (!conns[c]->read_line(line, 20'000)) {
          missing[c] = (n - i + conns.size() - 1) / conns.size();
          return;
        }
        p.recv_ns[i] = SpanLog::now_ns();
        p.replies[i] = std::move(line);
        if (trace != nullptr) {
          (*trace)[c + 1].add("request", p.due_ns[i], p.recv_ns[i], -1,
                              first + i);
        }
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Spin to the due time: on a virtual machine a sleeping thread can
    // wake milliseconds late, and the schedule must not depend on it.
    std::int64_t now = SpanLog::now_ns();
    while (now < p.due_ns[i]) now = SpanLog::now_ns();
    p.sent_ns[i] = now;
    conns[i % conns.size()]->write(lines[first + i]);
    if (trace != nullptr) {
      (*trace)[0].add("loadgen.send", p.due_ns[i], p.sent_ns[i], -1,
                      first + i);
    }
  }
  for (std::thread& t : readers) t.join();
  for (const std::size_t m : missing) p.missing += m;
  return p;
}

/// Median over consecutive windows of kWindowSeconds of each window's
/// p99: one burst of host noise moves one window, not the result.
double windowed_p99(const Phase& p, double rate) {
  const std::size_t per = static_cast<std::size_t>(rate * kWindowSeconds);
  std::vector<double> p99s;
  const std::vector<double> all = p.latency_ms();
  for (std::size_t at = 0; at + per <= all.size(); at += per) {
    p99s.push_back(percentile(
        std::vector<double>(all.begin() + static_cast<std::ptrdiff_t>(at),
                            all.begin() + static_cast<std::ptrdiff_t>(at + per)),
        0.99));
  }
  return p99s.empty() ? percentile(all, 0.99) : median(p99s);
}

struct Step {
  double rate = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  std::size_t backlog = 0;  ///< replies still due when the step ends
  bool pass = false;
};

// --- stats and checks ----------------------------------------------------------

struct ServerStats {
  double service_p50_ms = 0.0;
  double service_p99_ms = 0.0;
  double rejected = 0.0;
  double errors = 0.0;
};

ServerStats query_stats(wdag::serve::Session& session) {
  const std::string line = session.exchange("{\"type\":\"stats\"}");
  ServerStats s;
  const std::size_t lat = line.find("\"latency-ms\":");
  const std::string latency =
      lat == std::string::npos ? std::string() : line.substr(lat);
  s.service_p50_ms = json_number(latency, "p50").value_or(0.0);
  s.service_p99_ms = json_number(latency, "p99").value_or(0.0);
  s.rejected = json_number(line, "rejected-queue-full").value_or(0.0) +
               json_number(line, "rejected-deadline").value_or(0.0) +
               json_number(line, "rejected-shutdown").value_or(0.0) +
               json_number(line, "rejected-max-connections").value_or(0.0);
  s.errors = json_number(line, "errors").value_or(0.0);
  return s;
}

/// Totals over the checked replies.
struct Checked {
  std::size_t ok = 0;
  std::size_t optimal = 0;
  std::size_t sum_wavelengths = 0;
  std::size_t sum_load = 0;
  double parse_us = 0.0;
  double submit_us = 0.0;
  double emit_us = 0.0;
};

/// Compares every reply with an in-process Engine::submit of its line,
/// timing serve::parse_request, Engine::submit and
/// serve::solve_response_json on the way.
Checked check_replies(const std::vector<std::string>& lines,
                      const std::vector<Phase>& phases,
                      const std::vector<std::size_t>& firsts, Outcome& out) {
  wdag::api::Engine engine(wdag::api::EngineOptions{1, {}});
  Checked c;
  std::int64_t parse_ns = 0, submit_ns = 0, emit_ns = 0;
  std::size_t calls = 0;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const Phase& p = phases[k];
    for (std::size_t i = 0; i < p.replies.size(); ++i) {
      const std::string& sent = lines[firsts[k] + i];
      const std::string_view line(sent.data(), sent.size() - 1);  // no '\n'
      const std::string& reply = p.replies[i];
      if (reply.empty()) continue;  // counted as missing already
      const std::int64_t t0 = SpanLog::now_ns();
      const wdag::serve::WireRequest req = wdag::serve::parse_request(line);
      const std::int64_t t1 = SpanLog::now_ns();
      wdag::api::SolveRequest solve;
      solve.generator = req.gen;
      const wdag::api::SolveResponse local = engine.submit(solve);
      const std::int64_t t2 = SpanLog::now_ns();
      const std::string emitted =
          wdag::serve::solve_response_json(req.id, local);
      const std::int64_t t3 = SpanLog::now_ns();
      parse_ns += t1 - t0;
      submit_ns += t2 - t1;
      emit_ns += t3 - t2;
      ++calls;
      const auto load = json_number(reply, "load");
      const auto waves = json_number(reply, "wavelengths");
      const auto optimal = json_number(reply, "optimal");
      const bool id_ok =
          reply.find("\"id\":\"" + req.id + "\"") != std::string::npos;
      if (!is_ok(reply) || !id_ok || !load || !waves || !optimal ||
          *load != static_cast<double>(local.load) ||
          *waves != static_cast<double>(local.wavelengths) ||
          (*optimal != 0.0) != local.optimal) {
        out.fail(1, "request " + req.id + ": reply '" + reply +
                        "' differs from in-process " + emitted);
        continue;
      }
      ++c.ok;
      c.optimal += local.optimal ? 1 : 0;
      c.sum_wavelengths += local.wavelengths;
      c.sum_load += local.load;
    }
  }
  if (calls > 0) {
    const double n = static_cast<double>(calls);
    c.parse_us = static_cast<double>(parse_ns) / 1e3 / n;
    c.submit_us = static_cast<double>(submit_ns) / 1e3 / n;
    c.emit_us = static_cast<double>(emit_ns) / 1e3 / n;
  }
  return c;
}

}  // namespace

Outcome run_serve_workload(const Args& args) {
  Outcome out;

  // Set-up: spawn to the answered warm-up request, several times.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  int port = 0;
  for (std::size_t r = 0; r < kSetups; ++r) {
    if (server) server->kill();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerProcess>(args.wdag_cli, args.work_dir,
                                             static_cast<int>(r));
    port = server->wait_port();
    wdag::serve::Session warm("127.0.0.1", static_cast<std::uint16_t>(port));
    const std::string reply = warm.exchange(warmup_line(args.seed));
    setups.push_back(seconds_since(t0));
    if (!is_ok(reply) ||
        json_number(reply, "instances") != static_cast<double>(kWarmupCount) ||
        json_number(reply, "failures") != 0.0) {
      out.fail(1, "warm-up request failed: " + reply);
    }
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(port));
  }
  wdag::serve::Session control("127.0.0.1", static_cast<std::uint16_t>(port));

  // Every request line of the run, distinct seeds throughout. Untraced
  // runs spend the budget at the fixed rate; traced runs split it
  // between the fixed rate untraced and traced, then climb the ladder.
  const double fixed_seconds = args.seconds * (args.trace ? 0.3 : 1.0);
  const std::size_t warm_n =
      static_cast<std::size_t>(kFixedRate * kWarmupSeconds);
  const std::size_t fixed_n = static_cast<std::size_t>(kFixedRate * fixed_seconds);
  const std::vector<double> rates = ladder();
  std::size_t total = warm_n + fixed_n * (args.trace ? 2 : 1);
  if (args.trace) {
    for (const double r : rates) {
      total += static_cast<std::size_t>(r * kStepSeconds);
    }
  }
  std::vector<std::string> lines;
  lines.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    lines.push_back(request_line(args.seed, i + 1) + "\n");
  }

  tight_timer_slack();
  std::vector<Phase> phases;  // every measured phase, in send order
  std::vector<std::size_t> firsts;
  std::size_t next = 0;
  auto run_phase = [&](std::size_t n, double rate,
                       std::vector<SpanLog>* trace = nullptr) -> Phase& {
    firsts.push_back(next);
    phases.push_back(open_loop(conns, lines, next, n, rate, trace));
    next += n;
    return phases.back();
  };
  phases.reserve(2 + rates.size());  // `fixed` below points into it
  (void)open_loop(conns, lines, 0, warm_n, kFixedRate);
  next = warm_n;
  const Phase& fixed = run_phase(fixed_n, kFixedRate);
  const ServerStats after_fixed = query_stats(control);

  std::vector<SpanLog> trace_logs;
  std::vector<Step> steps;
  if (args.trace) {
    for (std::size_t t = 0; t <= kConnections; ++t) {
      trace_logs.emplace_back(fixed_n);
    }
    (void)run_phase(fixed_n, kFixedRate, &trace_logs);
    int failed_in_a_row = 0;
    for (const double rate : rates) {
      const Phase& p =
          run_phase(static_cast<std::size_t>(rate * kStepSeconds), rate);
      Step s;
      s.rate = rate;
      s.p99_ms = percentile(p.latency_ms(), 0.99);
      s.late_p99_ms = percentile(p.late_ms(), 0.99);
      s.backlog = static_cast<std::size_t>(
          std::count_if(p.recv_ns.begin(), p.recv_ns.end(),
                        [&](std::int64_t t) { return t > p.due_ns.back(); }));
      // A step passes when p99 meets the limit, no backlog is left when
      // its last request is due (about one reply in flight per
      // connection is normal), every reply arrived, and the generator
      // kept time.
      s.pass = p.missing == 0 && s.p99_ms <= kLatencyLimitMs &&
               s.backlog <= 2 * kConnections &&
               s.late_p99_ms <= kLatencyLimitMs / 2;
      steps.push_back(s);
      failed_in_a_row = s.pass ? 0 : failed_in_a_row + 1;
      if (failed_in_a_row == 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // End: one stats request, then SIGTERM and the drain summary.
  const ServerStats final_stats = query_stats(control);
  const double server_rss = peak_rss_mb(server->pid());
  conns.clear();
  const auto [code, log] = server->stop();
  std::size_t sent = 0, missing = 0;
  for (const Phase& p : phases) {
    sent += p.due_ns.size();
    missing += p.missing;
  }
  // The kept server answered the set-up batch and the warm-up phase.
  const std::string summary = "drained and stopped (" +
                              std::to_string(warm_n + sent) +
                              " solves, 1 batches, 0 rejected)";
  if (code != 0 || log.find(summary) == std::string::npos) {
    out.fail(1, "server exit " + std::to_string(code) +
                    ", expected a drain summary with '" + summary +
                    "', got: " + log);
  }
  if (final_stats.rejected > 0 || final_stats.errors > 0) {
    out.fail(static_cast<std::size_t>(final_stats.rejected + final_stats.errors),
             "server stats report rejected or failed requests");
  }
  if (missing > 0) out.fail(missing, "replies missing at the client");
  const std::vector<double> late = fixed.late_ms();
  const double late_p99 = percentile(late, 0.99);
  if (late_p99 > kLatencyLimitMs / 2) {
    out.fail(1, "generator ran late (p99 " + std::to_string(late_p99) +
                    " ms): the latency phase is invalid");
  }

  const Checked c = check_replies(lines, phases, firsts, out);
  out.attempted = sent;

  const std::vector<double> latency = fixed.latency_ms();
  const double p50 = percentile(latency, 0.50);
  out.notes.push_back(
      "serve-open: " + std::to_string(kConnections) + " connections, " +
      std::to_string(latency.size()) + " latency samples at " +
      std::to_string(static_cast<long>(kFixedRate)) + " req/s");
  out.add("request_p99_ms", windowed_p99(fixed, kFixedRate));
  if (!args.trace) {
    const double window =
        static_cast<double>(*std::max_element(fixed.recv_ns.begin(),
                                              fixed.recv_ns.end()) -
                            fixed.due_ns.front()) /
        1e9;
    out.add("throughput_ips", static_cast<double>(latency.size()) / window);
    out.add("request_p50_ms", p50);
    out.add("proven_share",
            c.ok == 0 ? 0.0
                      : static_cast<double>(c.optimal) /
                            static_cast<double>(c.ok));
    out.add("wavelength_load_ratio",
            c.sum_load == 0 ? 0.0
                            : static_cast<double>(c.sum_wavelengths) /
                                  static_cast<double>(c.sum_load));
    out.add("setup_s", median(setups));
    out.add("peak_rss_mb", server_rss);
    return out;
  }

  double max_rate = 0.0;
  std::string ladder_text = "ladder, latency limit " +
                            std::to_string(kLatencyLimitMs) +
                            " ms (rate:p99_ms/backlog, x = failed):";
  for (const Step& s : steps) {
    if (s.pass) max_rate = std::max(max_rate, s.rate);
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.0f:%.2f/%zu%s", s.rate, s.p99_ms,
                  s.backlog, s.pass ? "" : "x");
    ladder_text += buf;
  }
  out.notes.push_back(ladder_text);
  const Phase& traced = phases[1];
  out.add("max_rate_rps", max_rate);
  out.add("api.submit_us", c.submit_us);
  out.add("serve.service_p50_ms", after_fixed.service_p50_ms);
  out.add("serve.service_p99_ms", after_fixed.service_p99_ms);
  out.add("serve.overhead_p50_ms", p50 - after_fixed.service_p50_ms);
  out.add("serve.parse_us", c.parse_us);
  out.add("serve.emit_us", c.emit_us);
  out.add("serve.rejected", final_stats.rejected);
  out.add("serve.errors", final_stats.errors);
  out.add("loadgen.late_p50_ms", percentile(late, 0.50));
  out.add("loadgen.late_p99_ms", late_p99);
  const double traced_p50 = percentile(traced.latency_ms(), 0.50);
  out.add("trace.overhead_share", p50 > 0 ? traced_p50 / p50 - 1.0 : 0.0);
  const std::string base =
      args.work_dir + "/serve-open-seed" + std::to_string(args.seed);
  for (std::size_t t = 0; t < trace_logs.size(); ++t) {
    if (!trace_logs[t].write_csv(base + "-thread" + std::to_string(t) +
                                 ".csv")) {
      out.notes.push_back("could not write request spans");
    }
  }
  return out;
}

}  // namespace perfbench
