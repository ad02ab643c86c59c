// Observability: the instrumenting profiler and the trace views.
//
// A message's timeline lives in the event log (event_log.h): every event
// carries a wall-clock start, and the interval sites (inject, loop turn, the
// four `__dift.*` ops) carry a duration. The views at the bottom of this file
// read that log as one interval tree per injected message:
//
//   inject (root, one per StartTrace; ends at its last descendant's end)
//     └── loop turn (one per task executed under that trace)
//           ├── node enter           (flow node "input" handler starts)
//           ├── __dift.* op          (label / binaryOp / check / invoke)
//           │     └── decisions      (flow check, sink write, ...)
//           └── ...
//
// The profiler itself keeps only aggregates:
//   - per-function self/total wall time via frame enter/exit hooks in
//     Interpreter::CallFunction (covering natives and both execution tiers),
//   - per-source-line self time via the bytecode tier's line clock
//     (Chunk::lines maps every instruction to a 1-based source line; the VM
//     ticks the clock whenever the current line changes),
//   - a monitor-vs-app wall-time split: time inside `__dift.*` ops counts as
//     *monitor* time, time inside event-loop turns counts as *app* time, and
//     the tracker re-enters app accounting around the user function an
//     `invoke` dispatches to. Frames entered while monitor accounting is
//     active (labeller functions compiled from the policy) are tagged
//     monitor too.
//   - per-node turn latency: flow.node_turn_seconds{node=...} histograms.
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
#include <utility>
#include <vector>

#include "src/obs/event_log.h"
#include "src/support/json.h"

namespace turnstile {
namespace obs {

class Histogram;

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

  // Instantiable for per-context isolation: per-node turn histograms
  // register in `metrics` (null = the process-wide registry).
  explicit Profiler(Metrics* metrics = nullptr);

  // Enables profiling. Leaves the event log alone: the trace views need the
  // log enabled too (TURNSTILE_PROFILE and profile_app enable both).
  // Idempotent re-enable clears recorded data.
  void Enable();
  // Disables profiling and clears all recorded data.
  void Disable();
  bool enabled() const { return enabled_; }
  // Drops recorded data, keeps the enabled state.
  void Clear();

  // --- monitor/app split -----------------------------------------------------

  // Accounting-state switches (use the RAII windows below). Each returns the
  // profiler clock reading it switched at, in seconds since Enable().
  double PushMonitor();
  double PushApp();
  double Pop();
  // Folds one flow-node turn's wall time into flow.node_turn_seconds{node=...}.
  void ObserveNodeTurn(const std::string& node, double seconds);

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

  // --- snapshots ---------------------------------------------------------------

  std::vector<FunctionProfile> FunctionsSnapshot() const;  // by self_s, desc
  std::vector<LineProfile> LinesSnapshot() const;          // by line
  // The summary the Chrome trace view embeds: {split, functions, lines}.
  Json ProfileSummaryJson() const;

 private:
  struct Frame {
    uint32_t fn = 0;        // into functions_
    double start_s = 0.0;
    double child_s = 0.0;   // total time of directly nested frames
  };
  enum class Account : uint8_t { kIdle, kApp, kMonitor };

  double Now() const;
  double AccountFlush();    // bill elapsed time to the current account
  double PushAccount(Account account);
  void LineFlush();
  uint32_t FunctionIndex(const void* key, const std::string& name, int line);

  Metrics* metrics_ = nullptr;
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;

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

// RAII app-accounting window: the interpreter opens one per event-loop turn,
// the tracker one around the app function an invoke dispatches to (so the
// callee's time is not billed to the monitor). A turn window tagged with its
// flow node also observes its wall time in flow.node_turn_seconds{node=...}
// when it closes.
class ScopedAppAccounting {
 public:
  explicit ScopedAppAccounting(Profiler* profiler) {
    if (profiler != nullptr && profiler->enabled()) {
      profiler_ = profiler;
      start_s_ = profiler_->PushApp();
    }
  }
  ~ScopedAppAccounting() { End(); }
  bool active() const { return profiler_ != nullptr; }
  void set_node(std::string node) { node_ = std::move(node); }
  // Closes the window early (subsequent work bills to the enclosing state);
  // the destructor then does nothing.
  void End() {
    if (profiler_ != nullptr) {
      const double end_s = profiler_->Pop();
      if (!node_.empty()) {
        profiler_->ObserveNodeTurn(node_, end_s - start_s_);
      }
      profiler_ = nullptr;
    }
  }
  ScopedAppAccounting(const ScopedAppAccounting&) = delete;
  ScopedAppAccounting& operator=(const ScopedAppAccounting&) = delete;

 private:
  Profiler* profiler_ = nullptr;
  double start_s_ = 0.0;
  std::string node_;
};

// RAII monitor-accounting window around each `__dift.*` op: bills the op's
// wall time to the monitor bucket (dift.overhead_fraction attributes it).
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

// --- trace views over the event log -------------------------------------------

// {"traceEvents":[...], "displayTimeUnit":"ms", "turnstileProfile":{...}}.
// One "X" (complete) event per buffered log event, named "<kind>:<subject>"
// (so message roots read "inject:<node>"), category "monitor" for DIFT ops,
// violations and decisions, "app" otherwise; tid = trace id, so Perfetto
// renders one lane per message. args carry the event's seq, its parent's
// seq (0 = lane root) and kind. The turnstileProfile key (ignored by trace
// viewers) is `profiler`'s summary.
Json ChromeTraceJson(const EventLog& log, const Profiler& profiler);
// flamegraph.pl / speedscope collapsed format: "root;child;leaf <usecs>"
// per line, value = the event's self time in integer microseconds.
std::string CollapsedStacks(const EventLog& log);

// Applies the observability environment variables once per process (called
// from the Interpreter constructor so any binary honours them):
//   TURNSTILE_AUDIT=<path|capacity>
//                               enable the event log (event_log.h); a number
//                               in [0, 2^24] sizes the event ring ("1" =
//                               default size, "0" = off), any other value is
//                               a JSONL spill path drained at process exit
//   TURNSTILE_PROFILE=<path>    enable the profiler and the event log (at
//                               the default ring unless TURNSTILE_AUDIT sized
//                               it) and write the Chrome trace view to
//                               <path> at process exit
// A wholly numeric value outside its range (TURNSTILE_AUDIT=-5,
// TURNSTILE_TELEMETRY=70000) warns once and leaves the feature off.
// Programmatic Enable()/Disable() calls and driver flags run later and
// therefore override the environment.
void ApplyEnvObsConfig();

// Test-only: clears the once-per-process latch and re-reads the environment,
// so env-var tests work even after an interpreter has been constructed.
void ReapplyEnvObsConfigForTest();

}  // namespace obs
}  // namespace turnstile

#endif  // TURNSTILE_SRC_OBS_PROFILER_H_
