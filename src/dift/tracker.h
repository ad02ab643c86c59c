// The Inlined Dynamic Information Flow Tracker (§4.4).
//
// The tracker is registered into the interpreter as an ordinary global object
// named `__dift`, exactly as the paper inlines a minified tracker + policy
// into the instrumented application (Fig. 2b line 1). The interpreter core
// has no IFC knowledge: everything here goes through public interpreter APIs,
// which is the reproduction of the paper's platform-independence property.
//
// Implemented semantics (Fig. 5):
//   label(v, l)        —  v ↦ l(v)
//   binaryOp(⊙, v1,v2) —  v3 = v1 ⊙ v2,  v3 ↦ P1 ∪ P2
//   assignment         —  handled structurally: labels ride on the
//                         reference itself; value types are boxed
//   invoke(f, v...)    —  check ∀args ⊑ receiver, call, result ↦ ∪ Pi
//   check(d, r)        —  rule query without a call
//
// Hot-path representation: every label set the tracker carries is interned in
// the policy's LabelSetPool and handled as a LabelSetRef, so per-op unions,
// subset tests and rule checks are handle compares / flat-cache lookups with
// no per-op allocation. There is no label map: each object, array and
// function carries its labels in its own LabelSlot (src/interp/value.h), the
// paper's identity-keyed map with JavaScript WeakMap semantics. A label read
// is a field load, and a labelled value is reclaimed as soon as the program
// drops it (an unreachable value reaches no sink, so no verdict changes).
#ifndef TURNSTILE_SRC_DIFT_TRACKER_H_
#define TURNSTILE_SRC_DIFT_TRACKER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ifc/policy.h"
#include "src/interp/dift_hook.h"
#include "src/interp/interp.h"
#include "src/lang/atoms.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"

namespace turnstile {

// A recorded policy violation, with provenance: not just *that* the flow was
// forbidden, but *where* the offending labels came from and through which
// nodes/operations the message travelled.
struct Violation {
  double time = 0.0;         // virtual time
  std::string sink;          // function / receiver description
  std::string data_labels;   // rendered label sets (diagnostics)
  std::string receiver_labels;
  uint64_t trace_id = 0;     // trace active at violation time (0 = untraced)
  std::string origin_node;   // flow node the traced message was injected at
  // The chain of events that produced the offending label set: one
  // kDiftLabel entry per data label naming the labeller that attached it
  // (always recorded), then the buffered journey of the violating message
  // (when the event log is enabled), ending with the violation itself.
  // Rendered by ExplainViolation() in src/analysis/report.
  std::vector<obs::Event> provenance;
};

// Tracker statistics — used by the ablation benches.
struct TrackerStats {
  uint64_t label_calls = 0;
  uint64_t binary_ops = 0;
  uint64_t checks = 0;
  uint64_t invokes = 0;
  uint64_t boxes_created = 0;
  uint64_t violations = 0;
  uint64_t labeller_fn_evals = 0;
  uint64_t deep_label_memo_hits = 0;  // DeepLabel answered from the memo
};

class DiftTracker : public DiftHook {
 public:
  struct Options {
    // kReport records violations but lets the flow proceed; kEnforce blocks
    // the offending call (invoke returns undefined).
    enum class Mode { kReport, kEnforce };
    Mode mode = Mode::kEnforce;
    // When true, flows into receivers with no label information are treated
    // as violations (fail-closed). Default fail-open: selective
    // instrumentation routinely wraps calls whose receiver is unmanaged.
    bool strict_unlabeled_receivers = false;
  };

  DiftTracker(Interpreter* interp, std::shared_ptr<Policy> policy);
  DiftTracker(Interpreter* interp, std::shared_ptr<Policy> policy, Options options);
  // Deregisters this tracker as the interpreter's fused-ISA hook. Labels and
  // proxy traps stay on the values: the traps own the policy, not the
  // tracker, so they remain safe to fire.
  ~DiftTracker() override;

  // Defines the `__dift` global and registers this tracker as the
  // interpreter's fused-ISA hook. Call once before running the program.
  void Install();

  // --- the Table 1 API (also exposed to MiniScript) -------------------------

  // Evaluates the named labeller against `target` and attaches the resulting
  // label. Returns the (possibly boxed) managed value that must replace
  // `target` in the program.
  Result<Value> Label(Value target, const std::string& labeller_name);

  // v1 ⊙ v2 with compound labelling of the result.
  Result<Value> BinaryOp(const std::string& op, const Value& left, const Value& right);

  // Pure rule query; records a violation when the flow is forbidden.
  Result<bool> Check(const Value& data, const Value& receiver, const std::string& sink_name);

  // Checked call: verifies args ⊑ receiver, invokes target[func](args) with
  // unwrapped arguments, labels the result with the union of argument labels.
  Result<Value> Invoke(const Value& target, const std::string& func, std::vector<Value> args);

  // --- fused-ISA entry points (DiftHook; called by the labelled opcodes) -----
  // Each delegates to (or, for BinaryOp, is delegated to by) its string-API
  // twin above: a pair differs only in how its arguments arrive.
  Result<Value> FusedBinary(const std::string& spelling, turnstile::BinaryOp op,
                            const Value& left, const Value& right) override;
  Result<Value> FusedCheck(const Value& data, const Value& receiver) override;
  Result<Value> FusedInvoke(const Value& target, const std::string& func,
                            std::vector<Value> args) override;

  // Pure tracking (exhaustive instrumentation): puts `v` under management
  // without assigning labels — value types are boxed, objects get the proxy
  // trap. TrackDeep additionally boxes every value-type property/element
  // reachable from `v` — this is the cost model for exhaustively-managed
  // applications (§6.2: nlp.js converts every dictionary string into a
  // heap-allocated object).
  Value Track(Value v);
  Value TrackDeep(Value v, int depth = 4);

  // --- label plumbing --------------------------------------------------------

  // Interned-handle API (the hot path). Handles belong to policy().pool().
  LabelSetRef GetLabelRef(const Value& v) const;
  // Label of `v` including labels reachable through its properties/elements,
  // down to `max_depth` (must be < 64). Memoized per identity pointer; the
  // memo is dropped whenever the interpreter heap or any label slot mutates
  // (see HeapWriteEpoch in src/interp/value.h), so repeated checks of the
  // same message between mutations cost one flat lookup.
  LabelSetRef DeepLabelRef(const Value& v, int max_depth = 8) const;
  void AttachLabelRef(const Value& v, LabelSetRef labels);

  // Materializing compatibility wrappers over the handle API.
  LabelSet GetLabel(const Value& v) const;
  LabelSet DeepLabel(const Value& v, int max_depth = 8) const;
  void AttachLabel(const Value& v, const LabelSet& labels);

  const std::vector<Violation>& violations() const { return violations_; }
  const TrackerStats& stats() const { return stats_; }
  Policy& policy() { return *policy_; }

  // Flushes the per-tracker stats deltas into the global metrics registry
  // ("dift.*" counters). The hot-path ops deliberately bump only the plain
  // TrackerStats fields; callers (driver, benches, tests) publish at message
  // or snapshot granularity. Violations publish automatically.
  void PublishMetrics();

  // Where a label was first attached by a labeller (provenance source).
  struct LabelOrigin {
    std::string labeller;     // labeller name from the policy
    obs::TraceContext trace;  // trace (and its flow node) active at attachment
    uint64_t seq = 0;         // tracker-local attachment sequence number
    double time = 0.0;        // virtual time of attachment
  };
  // Origin of `id`, or nullptr when the label was never labeller-attached.
  const LabelOrigin* OriginOf(LabelId id) const;

 private:
  Result<Value> ApplySpec(const LabellerSpec* spec, Value target, LabelSetRef* out_labels,
                          const std::string& labeller_name);
  LabelSetRef ConstLabels(const LabellerSpec* spec);
  void RecordOrigins(LabelSetRef labels, const std::string& labeller_name);
  Result<FunctionPtr> CompileLabelFn(const LabellerSpec* spec);
  Result<LabelSetRef> LabelsFromValue(const Value& v);  // fn result -> interned set
  void DeepLabelInto(const Value& v, LabelSetRef* out, int depth) const;
  void RecordViolation(const std::string& sink, LabelSetRef data, LabelSetRef receiver);
  // Logs one kFlowCheck decision; callers gate on event_log_->enabled().
  void RecordFlowCheck(const std::string& sink, LabelSetRef data, LabelSetRef receiver,
                       bool allowed, std::string rule);
  // "{a} vs {b}" for check events, built once per handle pair and reused —
  // enabled-log runs pay a flat lookup per check instead of re-rendering
  // label names (see obs_event_log_test coverage).
  const std::string& CheckDetail(LabelSetRef data, LabelSetRef receiver);
  // Installs the set-trap proxy on a tracked object (dynamic property
  // support, §4.4).
  void InstallProxy(Object& object);

  Interpreter* interp_;
  std::shared_ptr<Policy> policy_;
  LabelSetPool* pool_;  // = &policy_->pool(); shared by all trackers on a policy
  Options options_;
  // ($invoke labellers) keyed by object identity + interned method name
  // (kAtomEmpty = "any method"); the value keeps the owning labeller's name
  // for provenance, and the target itself: an identity key is a raw address,
  // and without retention a freed target's address could be recycled by a
  // new value that would inherit the labeller.
  struct InvokeLabeller {
    const LabellerSpec* spec = nullptr;
    std::string labeller_name;
    Value target;
  };
  struct InvokeKeyHash {
    size_t operator()(const std::pair<const void*, Atom>& key) const {
      uint64_t x = reinterpret_cast<uint64_t>(key.first) ^
                   (uint64_t{key.second} * 0x9E3779B97F4A7C15ull);
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };
  std::unordered_map<std::pair<const void*, Atom>, InvokeLabeller, InvokeKeyHash>
      invoke_labellers_;
  std::unordered_map<const LabellerSpec*, FunctionPtr> compiled_fns_;
  std::unordered_map<const LabellerSpec*, LabelSetRef> const_label_refs_;
  std::vector<Violation> violations_;
  mutable TrackerStats stats_;  // const read paths bump memo-hit counters
  TrackerStats published_;  // last state flushed by PublishMetrics()

  // DeepLabel machinery: a reusable scratch visited-set (cleared, not
  // reallocated, per walk) and a per-(identity, depth) memo valid for one
  // heap write epoch.
  mutable std::unordered_set<const void*> deep_visited_;
  mutable std::unordered_map<uint64_t, LabelSetRef> deep_memo_;
  mutable uint64_t deep_memo_epoch_ = 0;

  // Memoized "{data} vs {receiver}" renderings for check events.
  std::unordered_map<uint64_t, std::string> check_detail_cache_;

  // Provenance: first labeller attachment per label id.
  std::unordered_map<LabelId, LabelOrigin> label_origins_;
  uint64_t origin_seq_ = 0;

  // Observability handles (resolved once in the constructor).
  obs::EventLog* event_log_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Counter* metric_label_calls_ = nullptr;
  obs::Counter* metric_binary_ops_ = nullptr;
  obs::Counter* metric_checks_ = nullptr;
  obs::Counter* metric_invokes_ = nullptr;
  obs::Counter* metric_boxes_created_ = nullptr;
  obs::Counter* metric_violations_ = nullptr;
  obs::Counter* metric_labeller_fn_evals_ = nullptr;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_DIFT_TRACKER_H_
