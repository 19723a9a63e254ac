#include "remote/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <utility>

#include "api/request.hpp"
#include "api/sink.hpp"
#include "core/json_min.hpp"
#include "core/shard.hpp"
#include "core/transport.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdag::remote {
namespace {

using Clock = std::chrono::steady_clock;

/// Accept / read poll tick: stop flags are noticed within one tick.
constexpr int kTickMs = 200;

/// Granularity of interruptible hook sleeps.
constexpr int kSleepTickMs = 50;

std::optional<std::size_t> env_shard(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

}  // namespace

ShardWorkerHooks ShardWorkerHooks::from_env() {
  ShardWorkerHooks hooks;
  hooks.fail_shard = env_shard("WDAG_WORKER_FAIL_SHARD");
  hooks.drop_conn_shard = env_shard("WDAG_WORKER_DROP_CONN");
  hooks.corrupt_shard = env_shard("WDAG_WORKER_CORRUPT_PAYLOAD");
  if (const char* v = std::getenv("WDAG_WORKER_SLOW_HEARTBEAT")) {
    char* colon = nullptr;
    hooks.slow_heartbeat_count =
        static_cast<std::size_t>(std::strtoull(v, &colon, 10));
    if (colon != nullptr && *colon == ':') {
      hooks.slow_heartbeat_ms =
          static_cast<int>(std::strtol(colon + 1, nullptr, 10));
    }
  }
  if (const char* v = std::getenv("WDAG_WORKER_STALL_MS")) {
    hooks.stall_first_ms = static_cast<int>(std::strtol(v, nullptr, 10));
  }
  return hooks;
}

ShardWorker::ShardWorker(ShardWorkerOptions options)
    : options_(std::move(options)),
      listener_(util::TcpListener::listen(options_.host, options_.port)),
      engine_(api::EngineOptions{options_.engine_threads, {}}) {
  slow_pings_left_.store(options_.hooks.slow_heartbeat_count,
                         std::memory_order_relaxed);
}

ShardWorker::~ShardWorker() {
  request_stop();
  join();
  // run() joins sessions before returning; if run() was never entered
  // nothing was spawned.
}

std::uint16_t ShardWorker::port() const {
  return static_cast<std::uint16_t>(listener_.port());
}

void ShardWorker::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    if (options_.external_stop && options_.external_stop()) break;
    auto conn = listener_.accept(kTickMs);
    if (!conn) continue;
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.emplace_back(&ShardWorker::session_loop, this,
                           std::move(*conn));
  }
  stop_.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (std::thread& session : sessions_) session.join();
  sessions_.clear();
}

void ShardWorker::start() {
  run_thread_ = std::thread(&ShardWorker::run, this);
}

void ShardWorker::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
}

void ShardWorker::join() {
  if (run_thread_.joinable()) run_thread_.join();
}

void ShardWorker::interruptible_sleep(int ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(ms);
  while (!stop_.load(std::memory_order_relaxed) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSleepTickMs));
  }
}

void ShardWorker::session_loop(util::TcpConn conn) {
  std::string line;
  auto last_activity = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    const util::ReadStatus status = conn.read_line(line, kTickMs);
    if (status == util::ReadStatus::kClosed) return;
    if (status == util::ReadStatus::kTimeout) {
      if (options_.idle_timeout_ms > 0.0 &&
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    last_activity)
                  .count() > options_.idle_timeout_ms) {
        return;  // silent session: close and free the thread
      }
      continue;
    }
    if (line.empty()) continue;
    last_activity = Clock::now();

    // A line with a "type" field is a control message; anything else IS
    // a shard manifest (its own format tag is "wdag_shard").
    bool is_control = false;
    std::string type;
    try {
      const core::minjson::JsonValue v =
          core::minjson::JsonParser(line, "worker request").parse();
      if (const core::minjson::JsonValue* t =
              core::minjson::opt_field(v, "type", "worker request")) {
        is_control = true;
        if (t->kind == core::minjson::JsonValue::Kind::kString) {
          type = t->text;
        }
      }
    } catch (const std::exception& e) {
      if (!conn.write_line(core::wire::shard_error_header(e.what()))) return;
      continue;
    }
    if (is_control) {
      if (type == "ping") {
        answer_ping(conn);
        if (!conn.is_open()) return;
      } else if (!conn.write_line(core::wire::shard_error_header(
                     "unknown control type '" + type + "'"))) {
        return;
      }
      continue;
    }
    serve_manifest(conn, line);
    if (!conn.is_open()) return;  // drop-conn hook closed mid-payload
  }
}

void ShardWorker::answer_ping(util::TcpConn& conn) {
  // The slow-heartbeat hook simulates a saturated or half-dead box: the
  // first N pings outlive the prober's timeout, so the transport burns
  // its miss budget and marks the worker unhealthy; ping N+1 answers
  // promptly again and the recovery re-probe brings it back.
  if (options_.hooks.slow_heartbeat_ms > 0) {
    std::size_t left = slow_pings_left_.load(std::memory_order_relaxed);
    while (left > 0 && !slow_pings_left_.compare_exchange_weak(
                           left, left - 1, std::memory_order_relaxed)) {
    }
    if (left > 0) interruptible_sleep(options_.hooks.slow_heartbeat_ms);
  }
  pings_.fetch_add(1, std::memory_order_relaxed);
  if (!conn.write_line(
          core::wire::pong_line(busy_.load(std::memory_order_relaxed)))) {
    conn.close();
  }
}

void ShardWorker::serve_manifest(util::TcpConn& conn,
                                 const std::string& line) {
  core::ShardManifest manifest;
  try {
    // parse_manifest recomputes and verifies the recorded plan/request
    // hashes — a tampered manifest is refused before any work happens.
    manifest = core::parse_manifest(line);
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    conn.write_line(core::wire::shard_error_header(e.what()));
    return;
  }

  if (options_.hooks.stall_first_ms > 0 &&
      !stall_fired_.exchange(true, std::memory_order_relaxed)) {
    interruptible_sleep(options_.hooks.stall_first_ms);
    if (stop_.load(std::memory_order_relaxed)) return;
  }
  if (options_.hooks.fail_shard == manifest.shard &&
      !fail_fired_.exchange(true, std::memory_order_relaxed)) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    conn.write_line(core::wire::shard_error_header(
        "injected failure (WDAG_WORKER_FAIL_SHARD) on shard " +
        std::to_string(manifest.shard)));
    return;
  }

  util::Timer timer;
  std::string payload;
  std::uint64_t rows = 0;
  busy_.fetch_add(1, std::memory_order_relaxed);
  try {
    std::ostringstream os;
    os << core::shard_csv_header(manifest);
    api::CsvStreamSink sink(os);
    api::BatchRequest request;
    request.generator = api::GeneratorSpec{
        manifest.spec.family, manifest.spec.params, manifest.spec.seed};
    request.count = manifest.spec.count;
    request.options.seed = manifest.spec.seed;
    request.options.index_base = 0;
    request.options.keep_entries = false;
    request.solve = manifest.spec.solve;
    if (!manifest.spec.force_strategy.empty()) {
      request.force_strategy = manifest.spec.force_strategy;
    }
    request.sinks.push_back(&sink);
    {
      const std::lock_guard<std::mutex> lock(engine_mutex_);
      (void)engine_.run_shard(request, manifest.shard, manifest.shards,
                              manifest.layout);
    }
    payload = os.str();
    // Validate before a byte leaves the box: the exact read_shard_csv +
    // plan-identity gate the driver applies on arrival.
    std::istringstream in(payload);
    const core::ShardCsv csv = core::read_shard_csv(in, "worker output");
    WDAG_REQUIRE(csv.manifest.plan_id == manifest.plan_id &&
                     csv.manifest.shard == manifest.shard,
                 "worker output does not match the requested shard");
    rows = csv.row_count;
  } catch (const std::exception& e) {
    busy_.fetch_sub(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
    conn.write_line(core::wire::shard_error_header(e.what()));
    return;
  }
  busy_.fetch_sub(1, std::memory_order_relaxed);

  const std::uint64_t checksum = core::fnv1a64(payload);
  // The drop hook takes this request if both hooks aim at the same
  // shard — the corrupt hook stays armed for the retry, so each failure
  // mode is observed on its own attempt.
  const bool drop_now =
      options_.hooks.drop_conn_shard == manifest.shard &&
      !drop_fired_.exchange(true, std::memory_order_relaxed);
  if (!drop_now && options_.hooks.corrupt_shard == manifest.shard &&
      !corrupt_fired_.exchange(true, std::memory_order_relaxed)) {
    // Flip one byte AFTER the checksum was computed: the header claims
    // the true checksum, the payload disagrees, the transport must
    // reject the transfer like any crashed attempt.
    payload[payload.size() / 2] ^= 0x20;
  }
  const std::string header = core::wire::shard_ok_header(
      payload.size(), checksum, rows, timer.seconds());
  if (drop_now) {
    // A dropped connection mid-payload: promise the full length, send
    // half, vanish.
    conn.write_line(header);
    conn.write_all(
        std::string_view(payload.data(), payload.size() / 2));
    conn.close();
    return;
  }
  if (!conn.write_line(header)) return;
  if (!conn.write_all(payload)) return;
  served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace wdag::remote
