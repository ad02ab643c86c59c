// Observability: the per-context event log.
//
// One bounded ring records both stories the runtime tells about a message:
//   - its *journey* (trace events): injected at a flow node, delivered along
//     wires, run as event-loop turns, passed through `__dift.*` operations,
//     and possibly stopped by a violation;
//   - the monitor's *decisions* (the audit ledger, §4.4): source-label
//     attach, label-set merge on propagation, invoke-labeller fire, flow
//     check with verdict and deciding rule, declassification, sink write.
// Where one DIFT operation produces both (a labeller attaching labels, a
// labelled binaryOp), it records a single decision event that also stands
// for the journey event; EventsForTrace() shows it under its journey kind.
//
// The log also owns the *trace context*: the trace the executing code is
// attributed to, the flow node that trace was injected at, and the next
// trace id. The context works whether or not the ring is enabled, so DIFT
// provenance and fleet trace binding see trace ids without switching
// recording on. StartTrace costs one increment. The interpreter carries the
// context across task boundaries (ScopedTrace).
//
// Intervals: an enabled log stamps every event with a wall-clock start.
// Sites that span work (inject, loop turn, the four `__dift.*` ops) close
// their event when the work finishes (Close / ScopedInterval), which stamps
// its duration; every other event is an instant. The profiler's trace views
// (profiler.h) nest a message's events from these intervals.
//
// Storage is a bounded ring with an optional JSONL *spill*: with a spill
// file, events evicted from the ring are appended to it instead of being
// dropped, and FlushSpill() drains the rest at shutdown, so the file holds
// the complete log in order. Without one, evictions count as dropped.
//
// Tier-identical guarantee: every decision emit site lives in shared native
// code (DiftTracker, FlowEngine) that both execution tiers reach through the
// same `__dift.*` / `node.send` funnels, so CanonicalLog() is byte-identical
// across tiers (vm_differential_test, the corpus round-trip matrix).
//
// Cost discipline: DISABLED by default. Record() starts with one branch on a
// plain bool; emit sites gate event *construction* on enabled() so the
// disabled hot path never allocates or formats anything.
#ifndef TURNSTILE_SRC_OBS_EVENT_LOG_H_
#define TURNSTILE_SRC_OBS_EVENT_LOG_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/lang/atoms.h"

namespace turnstile {
namespace obs {

class Counter;
class Metrics;

enum class EventKind : uint8_t {
  // Journey kinds (the message's trace).
  kInject,        // message enters a flow (subject = node id)
  kNodeEnter,     // a node's "input" handler is about to run
  kNodeSend,      // node.send delivery along a wire (subject = from, detail = to)
  kLoopTurn,      // one event-loop macrotask executed
  kDiftLabel,     // __dift.label that attached no labels (subject = labeller)
  kDiftBinaryOp,  // __dift.binaryOp (journey view of a kMerge)
  kDiftCheck,     // __dift.check (subject = sink name)
  kDiftInvoke,    // __dift.invoke (subject = function name)
  kViolation,     // a policy violation was recorded (subject = sink)
  // Decision kinds (the audit ledger; CanonicalLog() renders these).
  kLabelAttach,     // a labeller attached labels to a value
  kMerge,           // label sets merged during propagation (binaryOp)
  kInvokeLabeller,  // a call-time ($invoke) labeller fired
  kFlowCheck,       // a rule-DAG flow query (check / invoke), with verdict
  kDeclassify,      // a $const labeller re-labelled an already-labelled value
  kSinkWrite,       // data crossed into an I/O sink (unwrap point / terminal)
};
inline constexpr int kEventKindCount = 15;
inline constexpr EventKind kFirstDecisionKind = EventKind::kLabelAttach;
inline constexpr int kDecisionKindCount = kEventKindCount - static_cast<int>(kFirstDecisionKind);

const char* EventKindName(EventKind kind);
inline bool IsDecision(EventKind kind) { return kind >= kFirstDecisionKind; }

// The trace the executing code is attributed to: its id (0 = none) and the
// flow node it was injected at.
struct TraceContext {
  uint64_t id = 0;
  Atom origin = kAtomEmpty;
};

// One log entry. Emit sites fill kind / subject / detail / vtime and, for
// decisions, the label-set handles / verdict / rule; Record() stamps seq,
// trace id, node, app and the wall-clock start. Label-set handles are
// LabelSetRefs of the emitting tracker's policy pool (0 = empty set);
// `detail` carries rendered label names so the log reads without the pool.
struct Event {
  EventKind kind = EventKind::kLoopTurn;
  bool allowed = true;     // kFlowCheck verdict; true for every other kind
  uint64_t seq = 0;        // log-wide sequence (stamped); Decisions() renumbers
  uint64_t trace_id = 0;   // trace active at record time (stamped)
  Atom node = kAtomEmpty;  // origin node of that trace (stamped)
  Atom app = kAtomEmpty;   // application name (stamped)
  double vtime = 0.0;      // interpreter virtual time (journey rendering only)
  int64_t start_ns = 0;    // wall clock, ns since Enable() (stamped unless preset)
  int64_t dur_ns = 0;      // interval length once closed; 0 = instant (or open)
  uint32_t data = 0;       // LabelSetRef: data/left operand
  uint32_t receiver = 0;   // LabelSetRef: receiver/right operand
  uint32_t out = 0;        // LabelSetRef: attached/merged result
  std::string subject;     // node / labeller / operator / sink name
  std::string detail;      // rendered labels ("{secret} vs {public}") or journey detail
  std::string rule;        // kFlowCheck: the rule that decided the verdict

  // Journey rendering: "dift_label[Frame] {secret} @0.250 (trace 3)".
  std::string ToString() const;
  // Decision rendering used by the differential oracles (on Decisions()
  // entries, `seq` is the decision ordinal). No time is rendered: keeping it
  // out is what makes the two execution tiers' logs byte-identical.
  // "#3 flow_check[svc.send] data=2 recv=1 out=0 deny {secret} vs {public}
  //  rule='no rule allows secret' trace=1 node=inject1 app=camera-motion".
  std::string Canonical() const;
  // One JSON object per line (the spill format).
  std::string ToJsonLine() const;
};

class EventLog {
 public:
  // The process-wide log the default RuntimeContext reports into.
  static EventLog& Global();

  // Instantiable for per-context isolation: `audit.*` counters register in
  // `metrics` (null = the process-wide registry).
  explicit EventLog(Metrics* metrics = nullptr);

  // Enables recording into a ring of `capacity` events. Clears buffered
  // events and restarts sequence and trace numbering at 1.
  void Enable(size_t capacity = kDefaultCapacity);
  // Disables recording and clears state; flushes and closes the spill file.
  void Disable();
  bool enabled() const { return enabled_; }
  // Drops buffered events and restarts sequence and trace numbering; keeps
  // enabled/capacity/app/spill.
  void Clear();

  // --- trace context (always on) ---------------------------------------------

  // Starts a new trace for a message injected at `origin`, makes it current
  // and returns it. Records the kInject event when enabled; that event is
  // then the latest (seq == recorded()) for the caller to close.
  TraceContext StartTrace(Atom origin);
  const TraceContext& current() const { return current_; }
  uint64_t current_trace() const { return current_.id; }
  void SetCurrent(TraceContext context) { current_ = context; }
  uint64_t traces_started() const { return next_trace_ - 1; }

  // --- recording ---------------------------------------------------------------

  // Application stamp for subsequent events (the corpus driver sets this per
  // app). Also binds the counter `audit.app_events{app=...}`.
  void set_app(const std::string& app);
  const std::string& app() const { return AtomTable::Global().NameOf(app_); }

  // Opens `path` for writing as the JSONL spill target. Returns false (and
  // records no spill) when the file cannot be opened.
  bool SetSpillPath(const std::string& path);
  bool has_spill() const { return spill_ != nullptr; }
  // Appends all buffered events to the spill file (oldest first) and clears
  // the ring; no-op without a spill file.
  void FlushSpill();

  // Appends one event and returns its seq (0 when disabled). One branch when
  // disabled. Stamps seq/trace/node/app and start_ns; an event whose site
  // passed its own start_ns (work that records after it ran) is closed at
  // once. Decisions also bump the `audit.*` counters.
  uint64_t Record(Event event);
  // Shorthand for events that carry only kind, subject, detail and time.
  uint64_t Record(EventKind kind, const std::string& subject, std::string detail = {},
                  double vtime = 0.0);
  // Closes interval event `seq`: stamps its duration. No-op for seq 0 and
  // for an event that already left the ring (it spills or drops as open).
  void Close(uint64_t seq);
  // The log clock: ns since Enable(), strictly increasing across calls so
  // no two stamps tie and nesting reads unambiguously from the intervals.
  int64_t Now();

  // --- views -------------------------------------------------------------------

  // Oldest-to-newest snapshot of buffered events (all kinds, all traces).
  std::vector<Event> Snapshot() const;
  // The journey of one trace, oldest first: its buffered journey events,
  // with a decision that stands for a DIFT op shown under that op's kind.
  // The ring evicts oldest-first across all traces, so after dropped() > 0 a
  // trace's head (or all of it) may be gone: partial or empty, never an
  // error. Each surviving event still names its origin in `node`.
  std::vector<Event> EventsForTrace(uint64_t trace_id) const;
  // The buffered decisions (the audit ledger), oldest first, with `seq`
  // renumbered to each one's ordinal among decisions — the view reads the
  // same whether or not journey events share the ring.
  std::vector<Event> Decisions() const;
  // Canonical() of every Decisions() entry, one per line — the differential
  // oracle's comparison key.
  std::string CanonicalLog() const;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  // Events recorded since Enable()/Clear().
  uint64_t recorded() const { return next_seq_ - 1; }
  // Decision events recorded since Enable()/Clear().
  uint64_t decisions() const { return decisions_; }
  // Events evicted without a spill target.
  uint64_t dropped() const { return dropped_; }
  // Events written to the spill file.
  uint64_t spilled() const { return spilled_; }

  static constexpr size_t kDefaultCapacity = 8192;

 private:
  void Restart();
  void WriteSpillLine(const Event& event);
  // Ring slot of the i-th buffered event, oldest first.
  const Event& At(size_t i) const { return ring_[(head_ + capacity_ - size_ + i) % capacity_]; }
  Event& At(size_t i) { return ring_[(head_ + capacity_ - size_ + i) % capacity_]; }

  bool enabled_ = false;
  size_t capacity_ = 0;
  std::vector<Event> ring_;  // fixed-size once enabled
  size_t head_ = 0;          // next write slot
  size_t size_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t decisions_ = 0;
  uint64_t dropped_ = 0;
  uint64_t spilled_ = 0;
  Atom app_ = kAtomEmpty;
  std::FILE* spill_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  int64_t last_ns_ = 0;  // latest Now() stamp

  TraceContext current_;
  uint64_t next_trace_ = 1;

  // Counters exist even while the log is disabled so exposition is stable.
  Metrics* metrics_ = nullptr;
  Counter* metric_kind_[kDecisionKindCount] = {};
  Counter* metric_flows_allowed_ = nullptr;
  Counter* metric_flows_denied_ = nullptr;
  Counter* metric_dropped_ = nullptr;
  Counter* metric_app_events_ = nullptr;  // audit.app_events{app=...}
};

// RAII close of an interval event: the site records its event, hands the
// seq over (0 = nothing to close, e.g. the log is off), and the event's
// duration is stamped when the scope ends.
class ScopedInterval {
 public:
  explicit ScopedInterval(EventLog& log, uint64_t seq = 0) : log_(log), seq_(seq) {}
  ~ScopedInterval() {
    if (seq_ != 0) {
      log_.Close(seq_);
    }
  }
  void set_seq(uint64_t seq) { seq_ = seq; }
  ScopedInterval(const ScopedInterval&) = delete;
  ScopedInterval& operator=(const ScopedInterval&) = delete;

 private:
  EventLog& log_;
  uint64_t seq_;
};

// RAII guard restoring the log's trace context — used by the interpreter
// around each task so the context follows the event loop.
class ScopedTrace {
 public:
  ScopedTrace(EventLog& log, TraceContext context) : log_(log), previous_(log.current()) {
    log_.SetCurrent(context);
  }
  ~ScopedTrace() { log_.SetCurrent(previous_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  EventLog& log_;
  TraceContext previous_;
};

}  // namespace obs
}  // namespace turnstile

#endif  // TURNSTILE_SRC_OBS_EVENT_LOG_H_
