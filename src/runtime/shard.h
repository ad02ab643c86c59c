// One worker shard of the fleet runtime (see fleet.h for the full picture).
//
// A shard is a thread that *owns* a set of app instances: each instance is an
// isolated RuntimeContext + AppRuntime + flow-engine event loop, built on the
// shard's own thread and never touched from any other thread while the shard
// runs. Work arrives through an MPSC mailbox of FleetEnvelopes; the shard
// thread drains it in FIFO order, so deliveries to any single instance are
// processed in exactly the order they were posted — the property the
// differential gate (fleet vs single-threaded byte-identity) rests on.
//
// Ownership story, per shard:
//   - instances (context, interpreter, engine, tracker): shard-thread only,
//   - the per-shard Policy cache: same-app instances on one shard share one
//     parsed Policy, hence one LabelSetPool and RuleGraph with their memo
//     caches. The caches are unsynchronized by design — sharing never crosses
//     the shard boundary,
//   - the mailbox: the only cross-thread structure (mutex + condvars).
#ifndef TURNSTILE_SRC_RUNTIME_SHARD_H_
#define TURNSTILE_SRC_RUNTIME_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/obs/metrics.h"
#include "src/runtime/context.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace turnstile {

class FleetRuntime;

// The fleet-wide trace identity a message carries across shard (and thus
// serialization) boundaries. Local event-log trace ids restart at 1 per
// context, so without this a message crossing Wire(a, b) loses its causal
// story at the Json boundary; with it, the receiving shard binds whatever
// local trace the delivery starts to {fleet id, source span, hop+1} and a
// post-drain FleetTraceAssembler stitches the chain back together.
//
// The context rides the *envelope only* — it is never recorded into the
// event log, so the fleet-vs-single-threaded CanonicalLog() byte-identity
// gate is untouched.
struct FleetTraceContext {
  uint64_t fleet_trace_id = 0;  // minted once at FleetRuntime::Post; 0 = untraced
  uint64_t parent_span = 0;     // source shard's local trace id (0 = injection root)
  uint32_t hop = 0;             // wire crossings so far (0 = the injected hop)
};

// One unit of shard work: either "generate workload message #seq from the
// instance's template and drive it" (the bench / test injection path) or
// "materialize this serialized payload and drive it" (the cross-shard route
// path). Envelopes own all their data — no interpreter Value ever crosses a
// thread boundary; cross-shard payloads travel as plain Json.
struct FleetEnvelope {
  enum class Kind { kGenerate, kPayload };
  Kind kind = Kind::kGenerate;
  uint32_t instance = 0;  // shard-local instance index
  int seq = 0;            // kGenerate: workload sequence number
  bool record = false;    // observe processing latency into multi.proc_seconds
  Json payload;           // kPayload: the serialized message
  FleetTraceContext trace;
  // Stamped by ShardMailbox::Push at admission; the shard thread observes
  // enqueue->dequeue latency into shard.queue_seconds from it.
  std::chrono::steady_clock::time_point enqueued_at{};
};

// Bounded MPSC mailbox: many producers, one consumer (the shard thread).
//
// Backpressure policy: a *bounded* push blocks until the queue drops below
// capacity — external injectors (benches, tests, ingress adapters) therefore
// experience end-to-end backpressure instead of unbounded memory growth. A
// push with bounded=false enqueues unconditionally; shard threads use it for
// routed messages, because a full A→B mailbox must never block shard A while
// a full B→A mailbox blocks shard B (the classic router deadlock).
class ShardMailbox {
 public:
  explicit ShardMailbox(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  // Enqueues. Returns false (dropping the envelope) only when the mailbox is
  // closed. Blocks while full if `bounded`.
  bool Push(FleetEnvelope env, bool bounded);

  // Blocks until work arrives or the mailbox closes, then moves *everything*
  // queued into `batch` (appended). Returns false when closed and empty —
  // the consumer's termination condition.
  bool PopAll(std::vector<FleetEnvelope>* batch);

  // Wakes every blocked producer and consumer; subsequent pushes are
  // rejected. Already-queued envelopes still drain through PopAll.
  void Close();

  size_t depth() const;

  // Health telemetry hookup (call before any Push): `depth` tracks the queue
  // length after every push/drain, `wait` observes how long each *bounded*
  // push blocked on a full queue (the backpressure stall signal). Both are
  // lock-free instruments, updated under the mailbox mutex.
  void BindStats(obs::Gauge* depth, obs::Histogram* wait);

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<FleetEnvelope> queue_;
  bool closed_ = false;
  obs::Gauge* depth_gauge_ = nullptr;       // optional, see BindStats
  obs::Histogram* wait_hist_ = nullptr;     // optional, see BindStats
};

// The shard's record of where one local trace sits in a fleet trace: local
// trace `local_trace_id` of instance `instance` was started while processing
// an envelope carrying `trace`. Appended by the shard thread during
// Process(); read quiescently by FleetRuntime::AssembleTrace().
struct ShardTraceBinding {
  uint32_t instance = 0;
  uint64_t local_trace_id = 0;
  FleetTraceContext trace;
};

// A worker shard. Configure (AddInstance/WireInstance) from the fleet thread
// before Launch(); after Launch() the only safe cross-thread entry is Post().
// Accessors over instances (runtime_of, context_of, errors) are valid only
// while the fleet is quiescent: after Drain() with no concurrent posts, or
// after Join().
class Shard {
 public:
  struct InstanceSpec {
    const CorpusApp* app = nullptr;
    std::string id;     // fleet-wide app id ("name#k"), for error reports
    uint64_t seed = 0;  // workload rng seed
    bool wired = false; // terminal sends route onward through the fleet
  };

  Shard(FleetRuntime* fleet, int index, size_t mailbox_capacity);
  ~Shard();

  // --- fleet-thread, pre-Start ----------------------------------------------
  uint32_t AddInstance(InstanceSpec spec);
  void WireInstance(uint32_t instance);

  // Launches the shard thread, which builds every instance (parse, analyze,
  // instrument, compile — the per-tenant cold path) before it starts draining
  // the mailbox. Launch() returns at once, so the fleet launches every shard
  // before it waits for any and the shards build their instances
  // concurrently.
  void Launch();

  // Blocks until the launched shard thread has finished setup. A setup
  // failure is reported in status() and the shard runs with the surviving
  // instances.
  void AwaitSetup();

  // Close the mailbox and join the thread. Idempotent.
  void Join();

  // --- any thread -----------------------------------------------------------
  // Enqueues an envelope. Bounded (blocking when full) unless the caller is
  // itself a shard thread — see ShardMailbox for the deadlock rationale.
  bool Post(FleetEnvelope env);

  // The shard whose thread the caller is running on, or nullptr.
  static Shard* Current();

  int index() const { return index_; }
  size_t instance_count() const { return specs_.size(); }
  size_t mailbox_depth() const { return mailbox_.depth(); }
  uint64_t processed() const { return processed_.load(std::memory_order_relaxed); }
  // True between the shard thread finishing setup and the drain loop exiting
  // — the /healthz liveness bit.
  bool alive() const { return alive_.load(std::memory_order_acquire); }
  // Envelopes posted to this shard and not yet processed (atomic).
  int64_t in_flight() const { return in_flight_gauge_->value(); }

  // The shard's own health registry (shard.mailbox_depth, shard.in_flight,
  // shard.enqueue_wait_seconds, shard.queue_seconds, shard.wire_in,
  // shard.wire_out). Every instrument inside is a lock-free atomic, safe to
  // read from the telemetry thread while the shard runs — unlike the
  // per-instance contexts, which are quiescent-only.
  RuntimeContext* shard_context() const { return shard_context_.get(); }
  // Shard-level queue telemetry, readable while running (atomics).
  const obs::Histogram& queue_latency() const { return *queue_hist_; }
  const obs::Histogram& enqueue_wait() const { return *wait_hist_; }

  // --- quiescent-only -------------------------------------------------------
  const Status& status() const { return status_; }
  AppRuntime* runtime_of(uint32_t instance) const;
  RuntimeContext* context_of(uint32_t instance) const;
  // The fleet-wide app id of an instance ("name#k"; "" out of range).
  const std::string& instance_id(uint32_t instance) const;
  // Per-message drive errors ("app#3: TypeError ..."), in processing order.
  const std::vector<std::string>& errors() const { return errors_; }
  // Local-trace -> fleet-trace bindings accumulated by Process().
  const std::vector<ShardTraceBinding>& trace_bindings() const { return trace_bindings_; }
  // Folds every instance's private multi.proc_seconds histogram into `into`
  // (which must carry Histogram::DefaultLatencyBounds). Returns observations
  // merged.
  uint64_t MergeLatency(obs::Histogram* into) const;

 private:
  struct Instance {
    InstanceSpec spec;
    std::unique_ptr<RuntimeContext> context;
    std::unique_ptr<AppRuntime> runtime;
    Rng rng{0};
    obs::Histogram* latency = nullptr;  // context-private multi.proc_seconds
  };

  void Run();
  void BuildInstances();
  void Process(const FleetEnvelope& env);

  FleetRuntime* const fleet_;
  const int index_;
  ShardMailbox mailbox_;

  // Health telemetry: its own isolated context so shard-level series never
  // collide with instance registries, instruments cached at construction.
  std::unique_ptr<RuntimeContext> shard_context_;
  obs::Gauge* depth_gauge_ = nullptr;      // shard.mailbox_depth
  obs::Gauge* in_flight_gauge_ = nullptr;  // shard.in_flight
  obs::Histogram* wait_hist_ = nullptr;    // shard.enqueue_wait_seconds
  obs::Histogram* queue_hist_ = nullptr;   // shard.queue_seconds
  obs::Counter* wire_in_ = nullptr;        // routed envelopes received
  obs::Counter* wire_out_ = nullptr;       // terminal sends routed onward

  std::vector<InstanceSpec> specs_;  // frozen at Launch()
  std::vector<Instance> instances_;  // shard-thread owned after Launch()
  // Per-shard label interning: one parsed Policy per app, shared by every
  // same-app instance on this shard (and only this shard).
  std::unordered_map<const CorpusApp*, std::shared_ptr<Policy>> policies_;

  std::thread thread_;
  bool started_ = false;
  Status status_ = Status::Ok();
  std::vector<std::string> errors_;
  std::atomic<uint64_t> processed_{0};
  std::atomic<bool> alive_{false};

  // Trace stitching state, shard-thread only while running.
  FleetTraceContext current_env_trace_;
  std::vector<ShardTraceBinding> trace_bindings_;

  std::mutex setup_mu_;
  std::condition_variable setup_cv_;
  bool setup_done_ = false;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_RUNTIME_SHARD_H_
