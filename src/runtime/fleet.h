// FleetRuntime: the sharded multi-tenant fleet (tentpole of this change).
//
// A fleet owns N worker shards (src/runtime/shard.h); each shard owns a set
// of app instances — isolated RuntimeContext + AppRuntime + event loop — and
// drains an MPSC mailbox on its own thread. The fleet is the router between
// them:
//
//        Post("app#i", seq)        RouteTerminal (wired app -> app)
//   caller ──────────────► shard mailbox ◄────────────── shard thread
//                               │                               ▲
//                               ▼                               │
//                        shard thread drives            serialized Json
//                        the instance's event loop      (no Value crosses
//                                                        a thread boundary)
//
// Determinism contract (what fleet_runtime_test's differential gate checks):
// a fleet run of any corpus app produces byte-identical io records,
// violations and canonical event log to a single-threaded AppRuntime run
// with the same seed and message sequence. The argument: per-instance message
// order is FIFO through its shard mailbox, each instance's workload rng is
// private, contexts are isolated so cross-instance interleaving shares no
// state, and per-shard Policy sharing only memoizes label-set handles —
// rendered label names, the only thing that leaves the pool, are unaffected.
//
// Shutdown / aggregation entry points (Drain, Stop, MergeShardLatency,
// runtime_of, errors) require quiescence: no concurrent Post. Aggregate
// latency is merged from each context's private `multi.proc_seconds`
// histogram via obs::Histogram::Merge — hot paths observe into per-context
// instruments without ever locking.
#ifndef TURNSTILE_SRC_RUNTIME_FLEET_H_
#define TURNSTILE_SRC_RUNTIME_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/obs/fleet_trace.h"
#include "src/obs/telemetry.h"
#include "src/runtime/shard.h"
#include "src/support/status.h"

namespace turnstile {

// Serializes a flow output message for cross-shard transport: deep-unboxed
// (labels never cross a tenant boundary — the receiving app re-labels its
// own inputs), objects keep insertion order, arrays map element-wise,
// undefined and functions degrade to null, and so do values nested deeper
// than kMaxSerializeDepth (a cyclic message terminates, as it does in
// JSON.stringify). Exposed so the differential test
// can capture a single-threaded run's terminal sends through the identical
// transformation.
Json FleetSerializeMessage(const Value& msg);

// The inverse transport step: rebuilds a Value tree from serialized Json.
// No workload $-placeholder expansion happens here — the payload is data.
Value FleetMaterializeMessage(const Json& payload);

class FleetRuntime {
 public:
  struct Options {
    // Worker shard count; a non-positive value falls back to the default 4.
    int shards = 4;
    // Per-shard mailbox bound for external posts (see ShardMailbox).
    size_t mailbox_capacity = 1024;
    AppVersion version = AppVersion::kSelective;
    ExecTier tier = ExecTier::kBytecode;
    // Seed for every instance's private workload rng (same seed per instance
    // mirrors the single-threaded benches, keeping runs comparable).
    uint64_t rng_seed = 0xBE11C0DE;
    // >0 enables each context's event log with a ring of this many events
    // before the instance is built (so setup-time events are logged exactly
    // as a single-threaded enable-then-Create sequence would) AND fleet
    // trace-id minting at Post(): every injected message gets a fleet-wide
    // trace id carried across wire hops, and AssembleTrace() can stitch the
    // per-context logs after a drain. 0 (default) records nothing — the
    // disabled path adds no work beyond the envelope's extra fields.
    size_t event_capacity = 0;
  };

  FleetRuntime() : FleetRuntime(Options()) {}
  explicit FleetRuntime(Options options);
  ~FleetRuntime();

  // --- configuration (before Start) -----------------------------------------
  // Adds an instance of `app`, round-robin across shards (or pinned when
  // `shard` >= 0). Returns the fleet-wide app id "name#k" (k = per-app
  // instance ordinal).
  std::string AddApp(const CorpusApp& app, int shard = -1);

  // Routes every terminal send (flow output) of `src_id` into `dst_id`'s
  // entry point as a fresh delivery — the cross-shard app→app message path.
  Status Wire(const std::string& src_id, const std::string& dst_id);

  // --- lifecycle --------------------------------------------------------------
  // Launches every shard, then waits for each: the shards build their
  // instances concurrently, each on its own thread. Returns the setup error
  // of the lowest-numbered failing shard (the fleet still runs with the
  // surviving instances); errors() lists every setup error in shard order.
  Status Start();

  // Enqueues workload message #seq for `app_id`. Blocks under backpressure
  // when the destination mailbox is full (external callers only). `record`
  // observes the per-message latency into the instance's context-private
  // multi.proc_seconds histogram. Returns false for unknown ids or after
  // Stop().
  bool Post(const std::string& app_id, int seq, bool record = true);

  // Blocks until every posted envelope — including envelopes spawned by
  // wired terminal routes — has been processed. Caller must not Post
  // concurrently.
  void Drain();

  // Closes every mailbox and joins the shard threads. Idempotent; the
  // destructor calls it.
  void Stop();

  // --- inspection -------------------------------------------------------------
  const Options& options() const { return options_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  const Shard& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }
  uint64_t messages_processed() const;

  // Quiescent-only (after Drain with no concurrent posts, or after Stop).
  AppRuntime* runtime_of(const std::string& app_id) const;
  RuntimeContext* context_of(const std::string& app_id) const;
  std::vector<std::string> errors() const;  // setup + drive errors, all shards

  // Latency aggregation via Histogram::Merge: `into` must carry
  // Histogram::DefaultLatencyBounds(). Returns observations merged.
  uint64_t MergeShardLatency(int shard, obs::Histogram* into) const;
  uint64_t MergeFleetLatency(obs::Histogram* into) const;
  // Same shape for the shard-level queue telemetry: enqueue->dequeue latency
  // and bounded-push backpressure stalls, merged across every shard.
  uint64_t MergeQueueLatency(obs::Histogram* into) const;
  uint64_t MergeEnqueueWait(obs::Histogram* into) const;

  // Quiescent-only: joins every instance's event log with the shards'
  // fleet-trace bindings (requires Options::event_capacity > 0 to have
  // anything to join). See obs/fleet_trace.h.
  obs::FleetTraceAssembler AssembleTrace() const;

  // --- live telemetry ---------------------------------------------------------
  // Wires this fleet into a TelemetryServer: /metrics additionally serves
  // the per-shard health series + fleet-wide queue histograms (all read from
  // lock-free instruments — safe while shards run), /healthz reports
  // per-shard liveness, mailbox depth and in-flight counts. Stop() detaches
  // (ClearProviders), which blocks until any in-flight request is done.
  void AttachTelemetry(obs::TelemetryServer* server);
  // The provider bodies, exposed for tests and one-shot snapshots.
  std::string TelemetryMetricsText() const;
  Json TelemetryHealthJson() const;
  // Quiescent-only: assembles the fleet trace and publishes it to `server` —
  // the full Chrome export at /traces plus per-fleet-trace hop JSON at
  // /traces/<id> for the first `max_traces` ids.
  void PublishTraces(obs::TelemetryServer* server, size_t max_traces = 32) const;

  // --- shard-internal ---------------------------------------------------------
  // Called by a shard thread for each wired terminal send: serializes and
  // posts into the destination instance's shard (unbounded — shard origin),
  // stamping the outgoing hop's fleet trace context onto the envelope.
  void RouteTerminal(int src_shard, uint32_t src_instance, const Value& msg,
                     const FleetTraceContext& trace);
  // Called by a shard thread after each processed envelope (drain ticks).
  void OnProcessed();

 private:
  struct Placement {
    int shard = 0;
    uint32_t instance = 0;
  };

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, Placement> apps_;  // app id -> placement
  std::unordered_map<std::string, int> per_app_counts_;
  // (src shard, src instance) -> destination placement, frozen at Start().
  std::unordered_map<uint64_t, Placement> routes_;
  int next_shard_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> next_fleet_trace_{1};  // minted when event_capacity > 0
  obs::TelemetryServer* telemetry_ = nullptr;  // attached server, detached in Stop
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_RUNTIME_FLEET_H_
