// RuntimeContext: the explicit per-app-instance environment (ISSUE 7).
//
// Every layer of the runtime used to bind to process-wide singletons —
// AtomTable::Global() and the obs singletons (Metrics, EventLog, Profiler)
// — which made "many mutually-isolated app instances
// in one process" structurally impossible. RuntimeContext turns that ambient
// state into a parameter: the Interpreter (and through it the VM, FlowEngine,
// DiftTracker and corpus AppRuntime) resolves its observability handles from
// the context it was constructed with.
//
// Two kinds of context:
//   - Default(): references the process-wide singletons. Tools, benches and
//     every existing test run against it unchanged — Metrics::Global()
//     snapshots stay byte-compatible because they ARE the default context's
//     registry.
//   - CreateIsolated(): owns a private Metrics registry, EventLog and
//     Profiler. App instances built on isolated contexts can run
//     concurrently on separate threads: their metrics and event logs are
//     disjoint by construction (runtime_isolation_test proves it under
//     TSAN).
//
// What stays process-wide (by design, documented in DESIGN.md §12):
//   - the AtomTable: atoms are stable 32-bit names; sharing the table keeps
//     them meaningful across contexts, and Find/NameOf are lock-free.
//   - per-policy LabelSetPools: already owned by each instance's Policy,
//     below this layer — the context does not need to own them, only the
//     sinks their handles are rendered into.
//   - static-phase metrics (parse/analysis timings) and vm.chunks_compiled:
//     compilation is a per-AST artifact, recorded in the global registry.
#ifndef TURNSTILE_SRC_RUNTIME_CONTEXT_H_
#define TURNSTILE_SRC_RUNTIME_CONTEXT_H_

#include <memory>

#include "src/lang/atoms.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace turnstile {

class RuntimeContext {
 public:
  // The process-default context: wraps AtomTable::Global() and the obs
  // singletons. Never destroyed (its members are the never-destroyed
  // singletons whose pointers hot paths cache).
  static RuntimeContext& Default();

  // A context with a private obs stack (metrics + event log + profiler),
  // sharing the process-wide atom table. The instance built on it must stay
  // confined to one thread at a time (the obs sinks other than Metrics are
  // intentionally lock-free single-threaded structures).
  static std::unique_ptr<RuntimeContext> CreateIsolated();

  ~RuntimeContext() = default;
  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  AtomTable& atoms() const { return *atoms_; }
  obs::Metrics& metrics() const { return *metrics_; }
  obs::EventLog& event_log() const { return *event_log_; }
  obs::Profiler& profiler() const { return *profiler_; }

  bool is_default() const { return is_default_; }

  // Env-var obs configuration (TURNSTILE_PROFILE / TURNSTILE_AUDIT) binds to
  // the *default* context only, once per process: isolated contexts are
  // configured programmatically by whoever created them. Called from the
  // Interpreter constructor.
  void ApplyEnvObsConfig();

 private:
  RuntimeContext();  // the default context

  struct Isolated {};  // tag: the owning constructor
  explicit RuntimeContext(Isolated);

  bool is_default_ = false;
  AtomTable* atoms_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  obs::Profiler* profiler_ = nullptr;

  // Storage for isolated contexts (null in the default context).
  std::unique_ptr<obs::Metrics> owned_metrics_;
  std::unique_ptr<obs::EventLog> owned_event_log_;
  std::unique_ptr<obs::Profiler> owned_profiler_;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_RUNTIME_CONTEXT_H_
