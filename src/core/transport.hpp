#pragma once
// Pluggable shard-attempt transports for the drive engine (core/driver.cpp)
// — the seam that takes `wdag drive` from one machine to a fleet.
//
// A WorkerTransport owns a pool of attempt slots and starts
// TransportAttempts; the driver's attempt/poll/validate loop is transport-
// blind, so every robustness guarantee (bounded retry + backoff, per-shard
// timeouts, speculation, quarantine, journal + --resume, byte-identical
// merge) applies unchanged to remote attempts: an attempt only ever counts
// after its output file passes read_shard_csv + plan-identity validation,
// regardless of which transport produced the bytes.
//
//   * LocalTransport — the classic path: posix_spawn of
//     `<wdag> shard run --manifest ... --out ...` per attempt.
//   * TcpTransport   — one long-lived `wdag worker --port N` peer. An
//     attempt dials with a bounded connect timeout, sends the shard
//     manifest as one JSON line, and receives a one-line response header
//     followed by a length-prefixed raw shard-CSV payload stamped with an
//     FNV-1a checksum; the verified payload is written atomically to the
//     attempt's out path, where the driver validates it like any local
//     attempt's file. A background prober pings the worker on an interval;
//     `probe_miss_budget` consecutive misses mark it unhealthy (the driver
//     takes it out of rotation and re-dispatches its in-flight attempts),
//     and probing continues so a recovered worker rejoins.
//
// Wire protocol (newline-delimited JSON, core/json_min.hpp subset):
//
//   -> {"type":"ping"}
//   <- {"type":"pong","version":1,"busy":<live runs>}
//   -> <shard manifest JSON line, verbatim>          (no "type" field)
//   <- {"type":"shard","ok":true,"bytes":N,"fnv":"<hex16>",
//       "rows":R,"seconds":S}\n<N raw payload bytes>
//   <- {"type":"shard","ok":false,"error":"..."}
//
// INTERNAL header, like util/subprocess.hpp: not part of the public
// surface (never reachable from wdag/wdag.hpp, not in WDAG_PUBLIC_HEADERS).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/subprocess.hpp"

namespace wdag::core {

/// Version stamp of the worker wire protocol; peers reject other versions.
inline constexpr int kWorkerWireVersion = 1;

/// Upper bound on a shard payload a transport will buffer (a corrupt
/// length prefix must not become an allocation bomb).
inline constexpr std::uint64_t kMaxWirePayload = 1ULL << 30;

namespace wire {

/// The probe request line.
[[nodiscard]] std::string ping_line();

/// The probe response line. `busy` is the worker's live run count.
[[nodiscard]] std::string pong_line(std::size_t busy);

/// True when `line` parses as a pong of a compatible protocol version.
[[nodiscard]] bool is_pong(const std::string& line);

/// The parsed one-line header of a shard response.
struct ShardResponse {
  bool ok = false;
  std::uint64_t bytes = 0;    ///< payload length that follows the header
  std::uint64_t checksum = 0; ///< FNV-1a of the payload bytes
  std::uint64_t rows = 0;
  double seconds = 0.0;
  std::string error;          ///< set when !ok
};

[[nodiscard]] std::string shard_ok_header(std::uint64_t bytes,
                                          std::uint64_t checksum,
                                          std::uint64_t rows, double seconds);
[[nodiscard]] std::string shard_error_header(const std::string& error);

/// Parses a shard response header. Throws wdag::InvalidArgument on
/// malformed JSON or a non-"shard" type.
[[nodiscard]] ShardResponse parse_shard_response(const std::string& line);

}  // namespace wire

/// Everything a transport needs to start one attempt. Local transports
/// run `manifest_path` through a subprocess (with the env edits); remote
/// ones send `manifest_json` down the wire. Both leave their (not yet
/// validated) shard CSV at `out_path` — validation is the driver's job.
struct AttemptSpec {
  std::size_t shard = 0;
  std::size_t number = 0;       ///< 0-based attempt counter of the shard
  std::string manifest_path;
  std::string manifest_json;
  std::string out_path;
  util::SubprocessOptions subprocess;  ///< local transports only
};

/// One in-flight attempt, however it executes. poll() is non-blocking;
/// kill() requests cancellation (the attempt settles within one poll
/// tick); wait() blocks until settled. Exit code 0 means "the attempt
/// claims success and out_path is fully written" — the driver still
/// validates, exit 0 alone proves nothing.
class TransportAttempt {
 public:
  virtual ~TransportAttempt() = default;
  [[nodiscard]] virtual std::optional<int> poll() = 0;
  virtual int wait() = 0;
  virtual void kill() = 0;
  /// Short attempt description for the event log ("pid 123" /
  /// "worker 10.0.0.2:7070").
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Why a non-zero attempt failed, when the transport knows more than
  /// the exit code (connection lost, checksum mismatch, worker error).
  [[nodiscard]] virtual std::string failure_detail() const { return {}; }
};

/// A health-state transition observed by a transport's prober, drained by
/// the drive loop into its event log.
struct ProbeEvent {
  enum class Kind { kMiss, kUnhealthy, kRecovered };
  Kind kind = Kind::kMiss;
  std::string detail;
};

/// A pool of attempt slots sharing one execution substrate.
class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;
  /// Stable identity in events and the progress table ("local",
  /// "10.0.0.2:7070").
  [[nodiscard]] virtual const std::string& id() const = 0;
  /// Concurrent attempts this transport accepts.
  [[nodiscard]] virtual std::size_t slots() const = 0;
  [[nodiscard]] virtual bool remote() const = 0;
  /// False once the prober's miss budget is exhausted; the driver stops
  /// dispatching here and re-dispatches in-flight attempts elsewhere.
  [[nodiscard]] virtual bool healthy() const = 0;
  /// Starts one attempt. May throw (e.g. spawn failure) — the driver
  /// treats that as a drive-level error, exactly as posix_spawn failures
  /// always were.
  [[nodiscard]] virtual std::unique_ptr<TransportAttempt> start(
      const AttemptSpec& spec) = 0;
  /// Health transitions since the last drain (empty for transports
  /// without a prober).
  [[nodiscard]] virtual std::vector<ProbeEvent> drain_probe_events() {
    return {};
  }
};

/// The extracted posix_spawn path: each attempt is one
/// `<wdag> shard run --manifest ... --out ... --quiet` subprocess.
class LocalTransport final : public WorkerTransport {
 public:
  struct Config {
    std::string wdag_binary;
    std::size_t slots = 1;
    std::size_t worker_threads = 0;  ///< --threads per child (0 = default)
  };

  explicit LocalTransport(Config config);

  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] std::size_t slots() const override { return config_.slots; }
  [[nodiscard]] bool remote() const override { return false; }
  [[nodiscard]] bool healthy() const override { return true; }
  [[nodiscard]] std::unique_ptr<TransportAttempt> start(
      const AttemptSpec& spec) override;

  /// Degradation hook: when every remote worker is unhealthy the driver
  /// raises a zero-slot local transport to a real pool so the drive
  /// finishes on local execution alone.
  void set_slots(std::size_t slots) { config_.slots = slots; }

 private:
  Config config_;
  std::string id_ = "local";
};

/// One remote `wdag worker` peer, one attempt slot, plus the background
/// prober that maintains its health state.
class TcpTransport final : public WorkerTransport {
 public:
  struct Config {
    int connect_timeout_ms = 1000;
    double probe_interval_seconds = 2.0;
    int probe_timeout_ms = 500;
    std::size_t probe_miss_budget = 3;
  };

  /// `endpoint` is "host:port" (numeric IPv4 host). Throws
  /// wdag::InvalidArgument on a malformed endpoint; starts the prober.
  TcpTransport(const std::string& endpoint, Config config);
  ~TcpTransport() override;

  [[nodiscard]] const std::string& id() const override { return id_; }
  [[nodiscard]] std::size_t slots() const override { return 1; }
  [[nodiscard]] bool remote() const override { return true; }
  [[nodiscard]] bool healthy() const override {
    return healthy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::unique_ptr<TransportAttempt> start(
      const AttemptSpec& spec) override;
  [[nodiscard]] std::vector<ProbeEvent> drain_probe_events() override;

  /// Splits "host:port"; throws wdag::InvalidArgument when the port is
  /// missing or out of range (host syntax is checked at dial time).
  static std::pair<std::string, int> parse_endpoint(
      const std::string& endpoint);

 private:
  void probe_loop();
  [[nodiscard]] bool probe_once();
  void push_event(ProbeEvent::Kind kind, std::string detail);

  std::string host_;
  int port_ = 0;
  std::string id_;
  Config config_;
  std::atomic<bool> healthy_{true};
  std::atomic<bool> stop_{false};
  std::mutex events_mutex_;
  std::vector<ProbeEvent> events_;
  std::thread prober_;
};

}  // namespace wdag::core
