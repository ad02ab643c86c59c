// Observability: the live metrics plane (ISSUE 10).
//
// Two small, independent exporters, both off by default and both configured
// either programmatically or via TURNSTILE_TELEMETRY (read once per process
// with the same precedence as TURNSTILE_PROFILE — see profiler.h):
//
//   - TelemetryServer: a minimal blocking HTTP/1.0 server on 127.0.0.1, one
//     reader thread, serving
//       /metrics        Prometheus text exposition (pluggable provider;
//                       defaults to Metrics::Global()),
//       /healthz        JSON liveness (pluggable provider; the fleet runtime
//                       reports per-shard liveness + mailbox depth),
//       /traces         the latest published fleet Chrome trace,
//       /traces/<id>    one published fleet trace by fleet trace id.
//     TURNSTILE_TELEMETRY=<port> starts it.
//
//   - TelemetrySnapshotWriter: a thread appending one JSON metrics snapshot
//     line per interval to a JSONL file. TURNSTILE_TELEMETRY=<path> (any
//     non-numeric value) starts it.
//
// Concurrency contract (load-bearing — DESIGN.md §15): the server thread may
// only touch thread-safe state. The default /metrics provider reads the
// global Metrics registry (mutex at snapshot, atomics underneath); fleet
// providers read shard-level instruments (atomics) and mailbox depths
// (mutexed). Per-instance EventLog/Profiler instances are
// single-threaded by design and are NEVER read while shards run — traces
// appear under /traces only after a quiescent assembly publishes them.
// Providers run under the server's provider mutex, so ClearProviders()
// blocks until any in-flight provider call returns: callers detach before
// tearing down whatever the providers capture.
#ifndef TURNSTILE_SRC_OBS_TELEMETRY_H_
#define TURNSTILE_SRC_OBS_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "src/support/json.h"
#include "src/support/status.h"

namespace turnstile {
namespace obs {

class TelemetryServer {
 public:
  // The process-wide server TURNSTILE_TELEMETRY=<port> starts.
  static TelemetryServer& Global();

  TelemetryServer() = default;
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  // Binds 127.0.0.1:<port> (0 = ephemeral, see port()) and launches the
  // reader thread. Fails if already running or the bind/listen fails.
  Status Start(int port);
  // Unblocks the reader thread and joins it. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port (resolves an ephemeral bind), 0 when not running.
  int port() const { return port_.load(std::memory_order_acquire); }
  uint64_t requests_served() const { return requests_.load(std::memory_order_relaxed); }

  // Providers replace the defaults (global registry / static ok). Invoked on
  // the server thread under the provider mutex; pass nullptr via
  // ClearProviders() before destroying anything a provider captures.
  void SetMetricsProvider(std::function<std::string()> provider);
  void SetHealthProvider(std::function<Json()> provider);
  void ClearProviders();

  // Publishes an assembled fleet trace under /traces/<fleet_trace_id>; the
  // latest PublishFullTrace() payload is served at /traces. Quiescent-time
  // producers (post-drain assembly) write; the server thread reads.
  void PublishTrace(uint64_t fleet_trace_id, std::string trace_json);
  void PublishFullTrace(std::string trace_json);

 private:
  void Serve();
  void HandleClient(int client_fd);

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> port_{0};
  std::atomic<uint64_t> requests_{0};
  int listen_fd_ = -1;
  std::thread thread_;

  std::mutex provider_mu_;
  std::function<std::string()> metrics_provider_;
  std::function<Json()> health_provider_;

  std::mutex trace_mu_;
  std::map<uint64_t, std::string> traces_;
  std::string full_trace_;
};

// Appends `{"seq":N,"interval_ms":M,"metrics":{...}}` to a JSONL file every
// interval until stopped; Stop() writes one final snapshot so short runs
// still record something.
class TelemetrySnapshotWriter {
 public:
  // The process-wide writer TURNSTILE_TELEMETRY=<path> starts.
  static TelemetrySnapshotWriter& Global();

  TelemetrySnapshotWriter() = default;
  ~TelemetrySnapshotWriter();
  TelemetrySnapshotWriter(const TelemetrySnapshotWriter&) = delete;
  TelemetrySnapshotWriter& operator=(const TelemetrySnapshotWriter&) = delete;

  // `metrics` defaults to the global registry. Fails when already running or
  // the file cannot be opened for append.
  Status Start(const std::string& path, int interval_ms = 1000,
               class Metrics* metrics = nullptr);
  void Stop();  // final snapshot + close; idempotent

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }
  uint64_t snapshots_written() const { return written_.load(std::memory_order_relaxed); }

 private:
  void Run();
  void WriteSnapshot();

  std::atomic<bool> running_{false};
  std::atomic<uint64_t> written_{0};
  std::string path_;
  int interval_ms_ = 1000;
  class Metrics* metrics_ = nullptr;
  std::FILE* file_ = nullptr;
  std::thread thread_;
  std::mutex mu_;  // guards stop_ + file writes
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace obs
}  // namespace turnstile

#endif  // TURNSTILE_SRC_OBS_TELEMETRY_H_
