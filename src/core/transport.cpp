#include "core/transport.hpp"

#include <chrono>
#include <utility>

#include "core/json_min.hpp"
#include "core/shard.hpp"
#include "util/check.hpp"
#include "util/socket.hpp"

namespace wdag::core {

namespace {

/// Poll/read tick of a remote attempt's blocking I/O: short enough that
/// kill() settles promptly, long enough to stay off the CPU.
constexpr int kAttemptTickMs = 100;

/// Sleep granularity of the prober between probes (checks stop_).
constexpr int kProbeSleepTickMs = 50;

}  // namespace

// --- wire ------------------------------------------------------------------

namespace wire {

std::string ping_line() {
  minjson::JsonWriter w;
  w.field("type", "ping").field("version", kWorkerWireVersion);
  return std::move(w).str();
}

std::string pong_line(std::size_t busy) {
  minjson::JsonWriter w;
  w.field("type", "pong")
      .field("version", kWorkerWireVersion)
      .field("busy", static_cast<std::uint64_t>(busy));
  return std::move(w).str();
}

bool is_pong(const std::string& line) {
  try {
    const minjson::JsonValue v =
        minjson::JsonParser(line, "worker pong").parse();
    return minjson::req_str(v, "type", "worker pong") == "pong" &&
           minjson::req_u64(v, "version", "worker pong") ==
               static_cast<std::uint64_t>(kWorkerWireVersion);
  } catch (const std::exception&) {
    return false;
  }
}

std::string shard_ok_header(std::uint64_t bytes, std::uint64_t checksum,
                            std::uint64_t rows, double seconds) {
  minjson::JsonWriter w;
  w.field("type", "shard")
      .field("ok", true)
      .field("bytes", bytes)
      .field("fnv", minjson::hex16(checksum))
      .field("rows", rows)
      .field("seconds", seconds);
  return std::move(w).str();
}

std::string shard_error_header(const std::string& error) {
  minjson::JsonWriter w;
  w.field("type", "shard").field("ok", false).field("error", error);
  return std::move(w).str();
}

ShardResponse parse_shard_response(const std::string& line) {
  const char* ctx = "worker shard response";
  const minjson::JsonValue v = minjson::JsonParser(line, ctx).parse();
  const std::string type = minjson::req_str(v, "type", ctx);
  WDAG_REQUIRE(type == "shard",
               std::string(ctx) + ": unexpected type '" + type + "'");
  const minjson::JsonValue& ok = minjson::req_field(v, "ok", ctx);
  WDAG_REQUIRE(ok.kind == minjson::JsonValue::Kind::kBool,
               std::string(ctx) + ": field 'ok' must be a boolean");
  ShardResponse r;
  r.ok = ok.boolean;
  if (!r.ok) {
    r.error = minjson::req_str(v, "error", ctx);
    return r;
  }
  r.bytes = minjson::req_u64(v, "bytes", ctx);
  r.checksum = minjson::req_hex(v, "fnv", ctx);
  r.rows = minjson::req_u64(v, "rows", ctx);
  r.seconds = minjson::req_double(v, "seconds", ctx);
  WDAG_REQUIRE(r.bytes <= kMaxWirePayload,
               std::string(ctx) + ": payload length " +
                   std::to_string(r.bytes) + " exceeds the " +
                   std::to_string(kMaxWirePayload) + "-byte bound");
  return r;
}

}  // namespace wire

// --- LocalTransport --------------------------------------------------------

namespace {

/// A subprocess attempt — the pre-transport drive path, verbatim.
class LocalAttempt final : public TransportAttempt {
 public:
  explicit LocalAttempt(util::Subprocess proc) : proc_(std::move(proc)) {}

  std::optional<int> poll() override { return proc_.poll(); }
  int wait() override { return proc_.wait(); }
  void kill() override { proc_.kill(); }
  [[nodiscard]] std::string describe() const override {
    return "pid " + std::to_string(proc_.pid());
  }

 private:
  util::Subprocess proc_;
};

}  // namespace

LocalTransport::LocalTransport(Config config) : config_(std::move(config)) {
  WDAG_REQUIRE(!config_.wdag_binary.empty(),
               "LocalTransport: wdag_binary must be set");
}

std::unique_ptr<TransportAttempt> LocalTransport::start(
    const AttemptSpec& spec) {
  // --quiet keeps the workers' inherited stdout clean: the driver may be
  // streaming the merged CSV there.
  std::vector<std::string> argv = {config_.wdag_binary, "shard",
                                   "run",              "--manifest",
                                   spec.manifest_path, "--out",
                                   spec.out_path,      "--quiet"};
  if (config_.worker_threads > 0) {
    argv.emplace_back("--threads");
    argv.emplace_back(std::to_string(config_.worker_threads));
  }
  return std::make_unique<LocalAttempt>(
      util::Subprocess::spawn(argv, spec.subprocess));
}

// --- TcpTransport ----------------------------------------------------------

namespace {

/// One remote attempt: a background thread dials the worker, sends the
/// manifest line, reads header + length-prefixed payload in cancellable
/// ticks, verifies the FNV-1a checksum and writes the payload atomically
/// to the attempt's out path. Every failure mode (dial timeout, dropped
/// connection, worker-reported error, checksum mismatch) settles as a
/// non-zero code with a failure_detail — to the driver it looks exactly
/// like a crashed subprocess.
class TcpAttempt final : public TransportAttempt {
 public:
  TcpAttempt(std::string host, int port, std::string worker_id,
             std::string manifest_json, std::string out_path,
             int connect_timeout_ms)
      : host_(std::move(host)),
        port_(port),
        worker_id_(std::move(worker_id)),
        manifest_json_(std::move(manifest_json)),
        out_path_(std::move(out_path)),
        connect_timeout_ms_(connect_timeout_ms),
        thread_([this] { run(); }) {}

  ~TcpAttempt() override {
    cancel_.store(true, std::memory_order_relaxed);
    join();
  }

  std::optional<int> poll() override {
    if (!done_.load(std::memory_order_acquire)) return std::nullopt;
    join();
    return code_;
  }

  int wait() override {
    join();
    return code_;
  }

  void kill() override { cancel_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::string describe() const override {
    return "worker " + worker_id_;
  }

  [[nodiscard]] std::string failure_detail() const override {
    // Only read after poll()/wait() returned a code (thread joined).
    return detail_;
  }

 private:
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] bool cancelled() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  void finish(int code, std::string detail) {
    code_ = code;
    detail_ = std::move(detail);
    done_.store(true, std::memory_order_release);
  }

  void run() {
    try {
      util::TcpConn conn =
          util::TcpConn::connect(host_, port_, connect_timeout_ms_);
      if (!conn.write_line(manifest_json_)) {
        finish(1, "connection to " + worker_id_ + " lost sending manifest");
        return;
      }
      std::string header;
      for (;;) {
        if (cancelled()) {
          finish(1, "attempt cancelled");
          return;
        }
        const util::ReadStatus rs = conn.read_line(header, kAttemptTickMs);
        if (rs == util::ReadStatus::kLine) break;
        if (rs == util::ReadStatus::kClosed) {
          finish(1, "worker " + worker_id_ +
                        " closed the connection before responding");
          return;
        }
      }
      const wire::ShardResponse resp = wire::parse_shard_response(header);
      if (!resp.ok) {
        finish(1, "worker " + worker_id_ + " error: " + resp.error);
        return;
      }
      std::string payload;
      payload.reserve(resp.bytes);
      for (;;) {
        if (cancelled()) {
          finish(1, "attempt cancelled");
          return;
        }
        const util::ReadStatus rs =
            conn.read_exact(payload, resp.bytes, kAttemptTickMs);
        if (rs == util::ReadStatus::kLine) break;
        if (rs == util::ReadStatus::kClosed) {
          finish(1, "worker " + worker_id_ + " closed mid-payload (" +
                        std::to_string(payload.size()) + "/" +
                        std::to_string(resp.bytes) + " bytes)");
          return;
        }
      }
      // The checksum guards the transfer; the driver's read_shard_csv +
      // plan-identity validation still guards the content.
      const std::uint64_t got = fnv1a64(payload);
      if (got != resp.checksum) {
        finish(1, "payload checksum mismatch from worker " + worker_id_ +
                      " (expected " + minjson::hex16(resp.checksum) +
                      ", got " + minjson::hex16(got) + ")");
        return;
      }
      util::write_file_atomic(out_path_, payload);
      finish(0, "");
    } catch (const std::exception& e) {
      finish(1, e.what());
    }
  }

  std::string host_;
  int port_;
  std::string worker_id_;
  std::string manifest_json_;
  std::string out_path_;
  int connect_timeout_ms_;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> done_{false};
  int code_ = 1;
  std::string detail_;
  std::thread thread_;
};

}  // namespace

std::pair<std::string, int> TcpTransport::parse_endpoint(
    const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  WDAG_REQUIRE(colon != std::string::npos && colon > 0,
               "worker endpoint '" + endpoint + "' is not host:port");
  const std::string host = endpoint.substr(0, colon);
  const std::string port_text = endpoint.substr(colon + 1);
  int port = 0;
  try {
    std::size_t used = 0;
    port = std::stoi(port_text, &used);
    WDAG_REQUIRE(used == port_text.size() && port >= 1 && port <= 65535,
                 "worker endpoint '" + endpoint +
                     "' needs a port in [1, 65535]");
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("worker endpoint '" + endpoint +
                          "' needs a numeric port");
  }
  return {host, port};
}

TcpTransport::TcpTransport(const std::string& endpoint, Config config)
    : config_(config) {
  auto [host, port] = parse_endpoint(endpoint);
  host_ = std::move(host);
  port_ = port;
  id_ = host_ + ":" + std::to_string(port_);
  WDAG_REQUIRE(config_.connect_timeout_ms > 0,
               "TcpTransport: connect_timeout_ms must be > 0");
  WDAG_REQUIRE(config_.probe_timeout_ms > 0,
               "TcpTransport: probe_timeout_ms must be > 0");
  WDAG_REQUIRE(config_.probe_interval_seconds > 0.0,
               "TcpTransport: probe_interval_seconds must be > 0");
  WDAG_REQUIRE(config_.probe_miss_budget >= 1,
               "TcpTransport: probe_miss_budget must be >= 1");
  prober_ = std::thread([this] { probe_loop(); });
}

TcpTransport::~TcpTransport() {
  stop_.store(true, std::memory_order_relaxed);
  if (prober_.joinable()) prober_.join();
}

std::unique_ptr<TransportAttempt> TcpTransport::start(
    const AttemptSpec& spec) {
  return std::make_unique<TcpAttempt>(host_, port_, id_, spec.manifest_json,
                                      spec.out_path,
                                      config_.connect_timeout_ms);
}

std::vector<ProbeEvent> TcpTransport::drain_probe_events() {
  std::vector<ProbeEvent> out;
  const std::lock_guard<std::mutex> lock(events_mutex_);
  out.swap(events_);
  return out;
}

void TcpTransport::push_event(ProbeEvent::Kind kind, std::string detail) {
  const std::lock_guard<std::mutex> lock(events_mutex_);
  events_.push_back({kind, std::move(detail)});
}

bool TcpTransport::probe_once() {
  try {
    util::TcpConn conn =
        util::TcpConn::connect(host_, port_, config_.probe_timeout_ms);
    if (!conn.write_line(wire::ping_line())) return false;
    std::string line;
    // One total probe timeout for the pong; a worker that accepts but
    // never answers is as unhealthy as one that refuses.
    return conn.read_line(line, config_.probe_timeout_ms) ==
               util::ReadStatus::kLine &&
           wire::is_pong(line);
  } catch (const std::exception&) {
    return false;
  }
}

void TcpTransport::probe_loop() {
  // The prober counts consecutive misses; crossing the budget flips
  // healthy_ off (one kUnhealthy transition), the first subsequent
  // success flips it back (kRecovered). Probing never stops while the
  // transport lives, so an unhealthy worker keeps getting re-probed for
  // recovery.
  std::size_t misses = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const bool ok = probe_once();
    if (ok) {
      if (!healthy_.load(std::memory_order_relaxed)) {
        healthy_.store(true, std::memory_order_relaxed);
        push_event(ProbeEvent::Kind::kRecovered,
                   "probe succeeded after " + std::to_string(misses) +
                       " miss(es); back in rotation");
      }
      misses = 0;
    } else if (!stop_.load(std::memory_order_relaxed)) {
      ++misses;
      push_event(ProbeEvent::Kind::kMiss,
                 "probe miss " + std::to_string(misses) + "/" +
                     std::to_string(config_.probe_miss_budget));
      if (misses == config_.probe_miss_budget &&
          healthy_.load(std::memory_order_relaxed)) {
        healthy_.store(false, std::memory_order_relaxed);
        push_event(ProbeEvent::Kind::kUnhealthy,
                   "probe miss budget (" +
                       std::to_string(config_.probe_miss_budget) +
                       ") exhausted; out of rotation");
      }
    }
    // Sleep the interval in short ticks so destruction stays prompt.
    const auto interval =
        std::chrono::duration<double>(config_.probe_interval_seconds);
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!stop_.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kProbeSleepTickMs));
    }
  }
}

}  // namespace wdag::core
