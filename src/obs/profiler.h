// Observability: the hierarchical span profiler (ISSUE 5).
//
// Builds on the event log's trace context (event_log.h): where the log keeps
// an unstructured ring of point events, the profiler records *spans* — intervals
// with a parent id, wall-clock start/end and a duration — forming one tree
// per injected message:
//
//   inject (root, one per StartTrace)
//     └── loop turn (one per macrotask executed under that trace)
//           ├── node enter           (flow node "input" handler starts)
//           ├── __dift.* op          (label / binaryOp / check / invoke)
//           └── ...
//
// Alongside the span tree it runs a cheap instrumenting profiler:
//   - per-function self/total wall time via frame enter/exit hooks in
//     Interpreter::CallFunction (covering natives and both execution tiers),
//   - per-source-line self time via the bytecode tier's line clock
//     (Chunk::lines maps every instruction to a 1-based source line; the VM
//     ticks the clock whenever the current line changes),
//   - a monitor-vs-app wall-time split: time inside `__dift.*` spans and
//     tracker-internal work counts as *monitor* time, time inside event-loop
//     turns counts as *app* time, and the tracker re-enters app accounting
//     around the user function an `invoke` dispatches to. Frames entered
//     while monitor accounting is active (labeller functions compiled from
//     the policy) are tagged monitor too.
//
// Exporters: Chrome trace-event JSON (loads in Perfetto / chrome://tracing),
// collapsed-stack text (flamegraph.pl / speedscope), and a profile summary
// (functions, lines, split) embedded in the Chrome trace file.
//
// Cost discipline (same contract as EventLog): DISABLED by default;
// every hot-path entry point starts with one branch on a plain bool and
// returns immediately when disabled — no clock reads, no allocation. Each
// profiler instance is confined to its RuntimeContext's thread (app instances
// are single-threaded): no locking.
#ifndef TURNSTILE_SRC_OBS_PROFILER_H_
#define TURNSTILE_SRC_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/event_log.h"
#include "src/support/json.h"

namespace turnstile {
namespace obs {

class Histogram;

// One node of a per-message span tree.
struct ProfileSpan {
  uint64_t id = 0;        // 1-based; 0 = "no span"
  uint64_t parent = 0;    // enclosing span id (0 = tree root)
  uint64_t trace_id = 0;  // trace id of the owning message (0 = none)
  EventKind kind = EventKind::kLoopTurn;
  bool monitor = false;   // monitor (DIFT/tracker) time vs app time
  bool open = false;      // still running at snapshot time
  double start_s = 0.0;   // seconds since Enable()
  double end_s = 0.0;     // valid when !open (snapshots close open spans)
  std::string name;
  std::string detail;

  double duration_s() const { return end_s - start_s; }
};

// Aggregated per-function instrumentation profile.
struct FunctionProfile {
  std::string name;       // "<anonymous>" when the function has no name
  int line = 0;           // declaration line (0 = native / unknown)
  bool monitor = false;   // __dift.* frame or entered under monitor accounting
  uint64_t calls = 0;
  double total_s = 0.0;   // includes time in callees
  double self_s = 0.0;    // excludes time in profiled callees
};

// Aggregated per-source-line self time (bytecode tier line clock).
struct LineProfile {
  int32_t line = 0;       // 1-based source line; 0 = instruction had no line
  uint64_t ticks = 0;     // times the line became current
  double self_s = 0.0;
};

// Monitor/app wall-time split totals.
struct OverheadSplit {
  double app_s = 0.0;
  double monitor_s = 0.0;
  // monitor / (monitor + app); 0 when nothing was accounted.
  double fraction() const {
    double total = app_s + monitor_s;
    return total > 0.0 ? monitor_s / total : 0.0;
  }
};

class Metrics;

class Profiler {
 public:
  // The process-wide profiler the default RuntimeContext reports into.
  static Profiler& Global();

  // Instantiable for per-context isolation: spans stamp trace ids from
  // `log`'s trace context, per-node turn histograms register in `metrics`.
  // Null arguments bind to the process-wide singletons (default-context
  // behavior).
  explicit Profiler(EventLog* log = nullptr, Metrics* metrics = nullptr);

  // Enables profiling, keeping at most `span_capacity` spans (further spans
  // are counted as dropped; aggregates keep accumulating). Span trees key
  // off the event log's always-on trace ids, so the log's recording state
  // is left alone. Idempotent re-enable clears recorded data.
  void Enable(size_t span_capacity = 1 << 15);
  // Disables profiling and clears all recorded data.
  void Disable();
  bool enabled() const { return enabled_; }
  // Drops recorded data, keeps enabled state and capacity.
  void Clear();

  // --- span tree -------------------------------------------------------------

  // Opens the root span of a message tree (kind kInject) for `trace_id` and
  // returns its id. The root stays open while the message's tasks run; its
  // end time tracks the latest descendant end. No-op (returns 0) when
  // disabled or trace_id == 0.
  uint64_t BeginMessage(uint64_t trace_id, const std::string& origin_node);

  // Opens a span under the innermost open span (or under the message root of
  // the log's current trace when the open stack is empty). `monitor`
  // routes the span's wall time to monitor accounting; kLoopTurn/kNodeEnter
  // spans route to app accounting. Returns 0 when disabled.
  uint64_t BeginSpan(EventKind kind, std::string name, bool monitor, std::string detail = "");
  // Closes the span (LIFO; defensively unwinds to `id` if callees leaked).
  void EndSpan(uint64_t id);

  // --- monitor/app split -----------------------------------------------------

  // Explicit accounting-state switches for code that has no span of its own:
  // the tracker wraps the app function an invoke dispatches to in
  // PushApp/PopApp so the callee's time is not billed to the monitor.
  void PushMonitor();
  void PushApp();
  void Pop();

  OverheadSplit split() const;

  // --- frame hooks (Interpreter::CallFunction, both tiers + natives) --------

  // `key` is the function's identity (stable while the function lives);
  // frames merge by (name, line) so re-created natives aggregate.
  void EnterFrame(const void* key, const std::string& name, int line);
  void ExitFrame();

  // --- VM line clock (bytecode dispatch loop) -------------------------------

  // Brackets one Vm::Execute activation: saves the caller's current line so
  // nested activations attribute to their own lines, not the call site's.
  // Until the activation's first instruction the call site's line stays
  // current, so activation setup bills to it and line self time partitions
  // nested VM wall time exactly.
  void EnterVm();
  void ExitVm();
  // The executing instruction's source line changed.
  void LineTick(int32_t line);
  // Wall time spent inside VM activations (the denominator for line coverage).
  double vm_seconds() const;

  // --- snapshots and exporters ----------------------------------------------

  // Spans oldest-first; open spans are reported closed at "now" (message
  // roots at their latest descendant end).
  std::vector<ProfileSpan> SpanSnapshot() const;
  std::vector<FunctionProfile> FunctionsSnapshot() const;  // by self_s, desc
  std::vector<LineProfile> LinesSnapshot() const;          // by line
  uint64_t spans_recorded() const { return next_span_ - 1; }
  uint64_t spans_dropped() const { return dropped_; }

  // {"traceEvents":[...], "displayTimeUnit":"ms", "turnstileProfile":{...}}.
  // One "X" (complete) event per span; tid = trace id, so Perfetto renders
  // one lane per message. The extra turnstileProfile key (ignored by trace
  // viewers) carries the function/line/split summary.
  Json ChromeTraceJson() const;
  // flamegraph.pl / speedscope collapsed format: "root;child;leaf <usecs>"
  // per line, value = span self time in integer microseconds.
  std::string CollapsedStacks() const;
  // The turnstileProfile summary on its own: {split, functions, lines}.
  Json ProfileSummaryJson() const;

 private:
  struct OpenSpan {
    uint64_t id = 0;
    size_t index = 0;       // into spans_ (SIZE_MAX = dropped, not stored)
    bool pushed_state = false;
  };
  struct Frame {
    uint32_t fn = 0;        // into functions_
    double start_s = 0.0;
    double child_s = 0.0;   // total time of directly nested frames
  };
  enum class Account : uint8_t { kIdle, kApp, kMonitor };

  double Now() const;
  void AccountFlush();      // bill elapsed time to the current account
  void PushAccount(Account account);
  void PopAccount();
  void LineFlush();
  void CloseMessageRoot(uint64_t trace_id, double end_s);
  uint32_t FunctionIndex(const void* key, const std::string& name, int line);

  EventLog* log_ = nullptr;
  Metrics* metrics_ = nullptr;
  bool enabled_ = false;
  size_t capacity_ = 0;
  std::chrono::steady_clock::time_point epoch_;

  std::vector<ProfileSpan> spans_;
  uint64_t next_span_ = 1;
  uint64_t dropped_ = 0;
  std::vector<OpenSpan> open_;
  std::unordered_map<uint64_t, size_t> roots_;  // trace id -> spans_ index

  // Split accounting.
  Account account_ = Account::kIdle;
  std::vector<Account> account_stack_;
  double account_mark_s_ = 0.0;
  double app_s_ = 0.0;
  double monitor_s_ = 0.0;

  // Function frames.
  std::vector<FunctionProfile> functions_;
  std::unordered_map<const void*, uint32_t> fn_by_key_;
  std::unordered_map<std::string, uint32_t> fn_by_name_line_;
  std::vector<Frame> frames_;

  // VM line clock.
  int vm_depth_ = 0;
  int32_t current_line_ = -1;          // -1 = no line current
  double line_mark_s_ = 0.0;
  double vm_s_ = 0.0;
  std::vector<int32_t> line_stack_;    // caller lines across nested activations
  std::unordered_map<int32_t, LineProfile> lines_;

  // Per-node turn-latency histograms, resolved lazily (profiling-only path).
  std::unordered_map<std::string, Histogram*> node_histograms_;
};

// RAII span. Default-constructed = inactive; move-assign from a temporary to
// open conditionally (callers gate name construction on profiler->enabled()).
class ScopedProfileSpan {
 public:
  ScopedProfileSpan() = default;
  ScopedProfileSpan(Profiler* profiler, EventKind kind, std::string name, bool monitor,
                    std::string detail = "") {
    if (profiler != nullptr && profiler->enabled()) {
      profiler_ = profiler;
      id_ = profiler->BeginSpan(kind, std::move(name), monitor, std::move(detail));
    }
  }
  ~ScopedProfileSpan() { Reset(); }
  ScopedProfileSpan(ScopedProfileSpan&& other) noexcept
      : profiler_(other.profiler_), id_(other.id_) {
    other.profiler_ = nullptr;
    other.id_ = 0;
  }
  ScopedProfileSpan& operator=(ScopedProfileSpan&& other) noexcept {
    if (this != &other) {
      Reset();
      profiler_ = other.profiler_;
      id_ = other.id_;
      other.profiler_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  ScopedProfileSpan(const ScopedProfileSpan&) = delete;
  ScopedProfileSpan& operator=(const ScopedProfileSpan&) = delete;

 private:
  void Reset() {
    if (profiler_ != nullptr) {
      profiler_->EndSpan(id_);
      profiler_ = nullptr;
      id_ = 0;
    }
  }
  Profiler* profiler_ = nullptr;
  uint64_t id_ = 0;
};

// RAII app-accounting override (the tracker's invoke-callee window).
class ScopedAppAccounting {
 public:
  explicit ScopedAppAccounting(Profiler* profiler) {
    if (profiler != nullptr && profiler->enabled()) {
      profiler_ = profiler;
      profiler_->PushApp();
    }
  }
  ~ScopedAppAccounting() { End(); }
  // Closes the window early (subsequent work bills to the enclosing state);
  // the destructor then does nothing.
  void End() {
    if (profiler_ != nullptr) {
      profiler_->Pop();
      profiler_ = nullptr;
    }
  }
  ScopedAppAccounting(const ScopedAppAccounting&) = delete;
  ScopedAppAccounting& operator=(const ScopedAppAccounting&) = delete;

 private:
  Profiler* profiler_ = nullptr;
};

// RAII monitor-accounting window for the fused DIFT opcodes: bills the op's
// wall time to the monitor bucket (so dift.overhead_fraction still attributes
// it) without constructing a heap-named span per operation.
class ScopedMonitorAccounting {
 public:
  explicit ScopedMonitorAccounting(Profiler* profiler) {
    if (profiler != nullptr && profiler->enabled()) {
      profiler_ = profiler;
      profiler_->PushMonitor();
    }
  }
  ~ScopedMonitorAccounting() {
    if (profiler_ != nullptr) {
      profiler_->Pop();
    }
  }
  ScopedMonitorAccounting(const ScopedMonitorAccounting&) = delete;
  ScopedMonitorAccounting& operator=(const ScopedMonitorAccounting&) = delete;

 private:
  Profiler* profiler_ = nullptr;
};

// RAII frame hook used by Interpreter::CallFunction. Default-constructed =
// inactive; call Begin() behind an enabled() check so the disabled path pays
// neither argument evaluation nor the constructor's own branch.
class ScopedProfileFrame {
 public:
  ScopedProfileFrame() = default;
  ScopedProfileFrame(Profiler* profiler, const void* key, const std::string& name, int line) {
    if (profiler != nullptr && profiler->enabled()) {
      Begin(profiler, key, name, line);
    }
  }
  void Begin(Profiler* profiler, const void* key, const std::string& name, int line) {
    profiler_ = profiler;
    profiler_->EnterFrame(key, name, line);
  }
  ~ScopedProfileFrame() {
    if (profiler_ != nullptr) {
      profiler_->ExitFrame();
    }
  }
  ScopedProfileFrame(const ScopedProfileFrame&) = delete;
  ScopedProfileFrame& operator=(const ScopedProfileFrame&) = delete;

 private:
  Profiler* profiler_ = nullptr;
};

// RAII VM-activation bracket used by Vm::Execute.
class ScopedVmActivation {
 public:
  explicit ScopedVmActivation(Profiler* profiler) : profiler_(profiler) {
    if (profiler_ != nullptr) {
      profiler_->EnterVm();
    }
  }
  ~ScopedVmActivation() {
    if (profiler_ != nullptr) {
      profiler_->ExitVm();
    }
  }
  ScopedVmActivation(const ScopedVmActivation&) = delete;
  ScopedVmActivation& operator=(const ScopedVmActivation&) = delete;

 private:
  Profiler* profiler_ = nullptr;
};

// Applies the observability environment variables once per process (called
// from the Interpreter constructor so any binary honours them):
//   TURNSTILE_PROFILE=<path>    enable the profiler and write the Chrome
//                               trace JSON to <path> at process exit
//   TURNSTILE_AUDIT=<path|capacity>
//                               enable the event log (event_log.h); a number
//                               sizes the event ring ("1" = default size,
//                               "0" = off), any other value is a JSONL spill
//                               path drained at process exit
// Programmatic Enable()/Disable() calls and driver flags run later and
// therefore override the environment.
void ApplyEnvObsConfig();

// Test-only: clears the once-per-process latch and re-reads the environment,
// so env-var tests work even after an interpreter has been constructed.
void ReapplyEnvObsConfigForTest();

}  // namespace obs
}  // namespace turnstile

#endif  // TURNSTILE_SRC_OBS_PROFILER_H_
