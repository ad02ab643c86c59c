#include "src/dift/tracker.h"

#include <utility>

#include "src/lang/parser.h"
#include "src/lang/resolve.h"
#include "src/runtime/context.h"
#include "src/support/logging.h"

namespace turnstile {

namespace {

Value ArgAt(const std::vector<Value>& args, size_t i) {
  return i < args.size() ? args[i] : Value::Undefined();
}

// `v`'s labels as a handle of `pool`. A value type has no slot, and a slot
// written under another pool holds handles this pool cannot read: both are
// unlabelled here.
LabelSetRef SlotLabels(const Value& v, const LabelSetPool& pool) {
  const LabelSlot* slot = v.label_slot();
  return slot != nullptr && slot->pool == pool.id() ? slot->labels : kEmptyLabelSetRef;
}

// Unions non-empty `labels` into `slot`, claiming it for `pool` if another
// pool wrote it. A change bumps the heap write epoch, which is what drops the
// deep-label memo.
void UnionIntoSlot(LabelSlot* slot, LabelSetRef labels, LabelSetPool& pool) {
  LabelSetRef current = slot->pool == pool.id() ? slot->labels : kEmptyLabelSetRef;
  LabelSetRef merged = pool.Union(current, labels);
  if (merged != current) {
    slot->labels = merged;
    slot->pool = pool.id();
    BumpHeapWriteEpoch();
  }
}

// The proxy trap on tracked objects (dynamic property support, §4.4): a
// property written onto the object folds its value's labels into the
// object's own, so sink checks on the container observe them. Deletion keeps
// the container label (conservative — labels only grow, as in the paper).
// The trap owns the policy rather than pointing at a tracker, so it stays
// safe to fire after the tracker is gone.
struct FoldLabelsTrap {
  std::shared_ptr<Policy> policy;

  void operator()(Object& object, const std::string&, const Value& value) const {
    LabelSetPool& pool = policy->pool();
    LabelSetRef value_labels = SlotLabels(value, pool);
    if (value_labels != kEmptyLabelSetRef) {
      UnionIntoSlot(&object.label_slot, value_labels, pool);
    }
  }
};

}  // namespace

DiftTracker::DiftTracker(Interpreter* interp, std::shared_ptr<Policy> policy)
    : DiftTracker(interp, std::move(policy), Options()) {}

DiftTracker::DiftTracker(Interpreter* interp, std::shared_ptr<Policy> policy, Options options)
    : interp_(interp),
      policy_(std::move(policy)),
      pool_(&policy_->pool()),
      options_(options) {
  // Observability handles come from the interpreter's RuntimeContext, so a
  // tracker built on an isolated instance reports into that instance's sinks.
  RuntimeContext& context = interp->context();
  event_log_ = &context.event_log();
  profiler_ = &context.profiler();
  obs::Metrics& metrics = context.metrics();
  metric_label_calls_ = metrics.GetCounter("dift.label_calls");
  metric_binary_ops_ = metrics.GetCounter("dift.binary_ops");
  metric_checks_ = metrics.GetCounter("dift.checks");
  metric_invokes_ = metrics.GetCounter("dift.invokes");
  metric_boxes_created_ = metrics.GetCounter("dift.boxes_created");
  metric_violations_ = metrics.GetCounter("dift.violations");
  metric_labeller_fn_evals_ = metrics.GetCounter("dift.labeller_fn_evals");
}

DiftTracker::~DiftTracker() {
  // Deregister from the fused-ISA dispatch (the interpreter outlives the
  // tracker everywhere in the codebase — see AppRuntime's member order).
  if (interp_->dift_hook() == this) {
    interp_->set_dift_hook(nullptr);
  }
}

void DiftTracker::PublishMetrics() {
  // The per-op paths bump plain uint64 fields (they are on the §6.2 hot path
  // where even a relaxed atomic shows up in bench_micro_dift); this flushes
  // the deltas accumulated since the previous publish.
  metric_label_calls_->Increment(stats_.label_calls - published_.label_calls);
  metric_binary_ops_->Increment(stats_.binary_ops - published_.binary_ops);
  metric_checks_->Increment(stats_.checks - published_.checks);
  metric_invokes_->Increment(stats_.invokes - published_.invokes);
  metric_boxes_created_->Increment(stats_.boxes_created - published_.boxes_created);
  metric_violations_->Increment(stats_.violations - published_.violations);
  metric_labeller_fn_evals_->Increment(stats_.labeller_fn_evals -
                                       published_.labeller_fn_evals);
  published_ = stats_;
}

const DiftTracker::LabelOrigin* DiftTracker::OriginOf(LabelId id) const {
  auto it = label_origins_.find(id);
  return it == label_origins_.end() ? nullptr : &it->second;
}

void DiftTracker::RecordOrigins(LabelSetRef labels, const std::string& labeller_name) {
  if (labels == kEmptyLabelSetRef) {
    return;
  }
  for (LabelId id : pool_->Ids(labels)) {
    auto [it, inserted] = label_origins_.try_emplace(id);
    if (!inserted) {
      continue;  // first attachment wins: that is where the label came from
    }
    it->second.labeller = labeller_name;
    it->second.trace = event_log_->current();
    it->second.seq = ++origin_seq_;
    it->second.time = interp_->VirtualNow();
  }
}

// --- label plumbing ----------------------------------------------------------

LabelSetRef DiftTracker::GetLabelRef(const Value& v) const {
  return SlotLabels(v, *pool_);
}

void DiftTracker::AttachLabelRef(const Value& v, LabelSetRef labels) {
  LabelSlot* slot = v.label_slot();
  if (slot != nullptr && labels != kEmptyLabelSetRef) {
    UnionIntoSlot(slot, labels, *pool_);
  }
}

void DiftTracker::DeepLabelInto(const Value& v, LabelSetRef* out, int depth) const {
  if (depth < 0 || v.label_slot() == nullptr) {
    return;  // value types carry labels only via boxes
  }
  // A box carries exactly one value-type payload: its labels are the whole
  // contribution, no visited-set bookkeeping needed (a payload cannot cycle).
  bool is_box = v.IsObject() && v.AsObject()->is_box;
  if (!is_box && !deep_visited_.insert(v.IdentityKey()).second) {
    return;
  }
  *out = pool_->Union(*out, GetLabelRef(v));
  if (is_box) {
    return;
  }
  if (v.IsObject()) {
    for (const auto& [prop_key, prop_value] : v.AsObject()->properties) {
      (void)prop_key;
      DeepLabelInto(prop_value, out, depth - 1);
    }
  } else if (v.IsArray()) {
    for (const Value& element : v.AsArray()->elements) {
      DeepLabelInto(element, out, depth - 1);
    }
  }
}

LabelSetRef DiftTracker::DeepLabelRef(const Value& v, int max_depth) const {
  if (v.IsObject() && v.AsObject()->is_box) {
    // A box wraps one value-type payload: its labels are the whole deep
    // union. Skip the memo — the inline read is cheaper than the probe.
    return GetLabelRef(v);
  }
  const void* key = v.IdentityKey();
  if (key == nullptr) {
    return kEmptyLabelSetRef;  // value types carry labels only via boxes
  }
  // The memo is valid for exactly one heap write epoch: a label write, a
  // heap shape change or a free (see HeapWriteEpoch) could alter a deep
  // union or recycle an identity pointer.
  uint64_t epoch = HeapWriteEpoch();
  if (deep_memo_epoch_ != epoch) {
    deep_memo_.clear();
    deep_memo_epoch_ = epoch;
  }
  // Identity pointers never use the top byte (canonical user-space
  // addresses), so depth fits there without colliding two keys.
  uint64_t memo_key =
      reinterpret_cast<uint64_t>(key) ^ (static_cast<uint64_t>(max_depth) << 56);
  auto it = deep_memo_.find(memo_key);
  if (it != deep_memo_.end()) {
    ++stats_.deep_label_memo_hits;
    return it->second;
  }
  deep_visited_.clear();  // keeps its buckets: no per-walk allocation
  LabelSetRef out = kEmptyLabelSetRef;
  DeepLabelInto(v, &out, max_depth);
  deep_memo_.emplace(memo_key, out);
  return out;
}

LabelSet DiftTracker::GetLabel(const Value& v) const {
  return pool_->Materialize(GetLabelRef(v));
}

LabelSet DiftTracker::DeepLabel(const Value& v, int max_depth) const {
  return pool_->Materialize(DeepLabelRef(v, max_depth));
}

void DiftTracker::AttachLabel(const Value& v, const LabelSet& labels) {
  AttachLabelRef(v, pool_->Intern(labels));
}

void DiftTracker::InstallProxy(Object& object) {
  // A trap folding under another policy would drop this policy's labels.
  const auto* trap = object.set_trap.target<FoldLabelsTrap>();
  if (trap == nullptr || trap->policy != policy_) {
    object.set_trap = FoldLabelsTrap{policy_};
  }
}

// --- labeller evaluation -----------------------------------------------------

Result<FunctionPtr> DiftTracker::CompileLabelFn(const LabellerSpec* spec) {
  auto cached = compiled_fns_.find(spec);
  if (cached != compiled_fns_.end()) {
    return cached->second;
  }
  TURNSTILE_ASSIGN_OR_RETURN(program, ParseProgram(spec->fn_source, "<labeller>"));
  if (program.root->children.size() != 1 ||
      program.root->children[0]->kind != NodeKind::kExprStmt) {
    return PolicyError("label function must be a single expression: " + spec->fn_source);
  }
  const NodePtr& literal = program.root->children[0]->children[0];
  if (literal->kind != NodeKind::kFunctionExpr && literal->kind != NodeKind::kArrowFunction) {
    return PolicyError("label function did not evaluate to a function: " + spec->fn_source);
  }
  // Resolve so the closure uses slot-indexed frames like any other program
  // code (labellers run on every labelled value).
  ResolveProgram(program);
  // The closure retains the literal's AST for as long as it is cached.
  FunctionPtr fn = interp_->MakeClosure(*literal, interp_->global_env());
  compiled_fns_[spec] = fn;
  return fn;
}

Result<LabelSetRef> DiftTracker::LabelsFromValue(const Value& v) {
  Value unboxed = UnboxDeep(v);
  if (unboxed.IsNullish()) {
    return kEmptyLabelSetRef;  // labeller declined to label
  }
  std::vector<LabelId> ids;
  if (unboxed.IsArray()) {
    ids.reserve(unboxed.AsArray()->elements.size());
    for (const Value& element : unboxed.AsArray()->elements) {
      Value e = UnboxDeep(element);
      if (!e.IsNullish()) {
        ids.push_back(policy_->space().Intern(e.ToDisplayString()));
      }
    }
  } else {
    ids.push_back(policy_->space().Intern(unboxed.ToDisplayString()));
  }
  return pool_->Intern(std::move(ids));
}

LabelSetRef DiftTracker::ConstLabels(const LabellerSpec* spec) {
  auto it = const_label_refs_.find(spec);
  if (it != const_label_refs_.end()) {
    return it->second;
  }
  std::vector<LabelId> ids;
  ids.reserve(spec->const_labels.size());
  for (const std::string& name : spec->const_labels) {
    ids.push_back(policy_->space().Intern(name));
  }
  LabelSetRef ref = pool_->Intern(std::move(ids));
  const_label_refs_[spec] = ref;
  return ref;
}

Result<Value> DiftTracker::ApplySpec(const LabellerSpec* spec, Value target,
                                     LabelSetRef* out_labels,
                                     const std::string& labeller_name) {
  switch (spec->kind) {
    case LabellerSpec::Kind::kConst: {
      LabelSetRef labels = ConstLabels(spec);
      RecordOrigins(labels, labeller_name);
      *out_labels = pool_->Union(*out_labels, labels);
      if (target.IsValueType()) {
        ObjectPtr box = MakeObject();
        box->is_box = true;
        box->box_payload = target;
        ++stats_.boxes_created;
        Value boxed(box);
        AttachLabelRef(boxed, labels);
        return boxed;
      }
      AttachLabelRef(target, labels);
      if (target.IsObject()) {
        InstallProxy(*target.AsObject());
      }
      return target;
    }
    case LabellerSpec::Kind::kFn: {
      TURNSTILE_ASSIGN_OR_RETURN(fn, CompileLabelFn(spec));
      ++stats_.labeller_fn_evals;
      TURNSTILE_ASSIGN_OR_RETURN(
          result, interp_->CallFunction(fn, Value::Undefined(), {UnboxDeep(target)}));
      TURNSTILE_ASSIGN_OR_RETURN(labels, LabelsFromValue(result));
      RecordOrigins(labels, labeller_name);
      *out_labels = pool_->Union(*out_labels, labels);
      if (target.IsValueType()) {
        if (labels == kEmptyLabelSetRef) {
          return target;  // nothing to track
        }
        ObjectPtr box = MakeObject();
        box->is_box = true;
        box->box_payload = target;
        ++stats_.boxes_created;
        Value boxed(box);
        AttachLabelRef(boxed, labels);
        return boxed;
      }
      AttachLabelRef(target, labels);
      if (target.IsObject()) {
        InstallProxy(*target.AsObject());
      }
      return target;
    }
    case LabellerSpec::Kind::kMap: {
      Value unboxed = Unbox(target);
      if (!unboxed.IsArray()) {
        return target;  // $map on a non-array is a no-op (value may be absent)
      }
      LabelSetRef element_union = kEmptyLabelSetRef;
      auto& elements = unboxed.AsArray()->elements;
      for (Value& element : elements) {
        LabelSetRef element_labels = kEmptyLabelSetRef;
        TURNSTILE_ASSIGN_OR_RETURN(
            replacement,
            ApplySpec(spec->element.get(), element, &element_labels, labeller_name));
        element = replacement;
        element_union = pool_->Union(element_union, element_labels);
      }
      AttachLabelRef(unboxed, element_union);
      *out_labels = pool_->Union(*out_labels, element_union);
      return target;
    }
    case LabellerSpec::Kind::kObject: {
      Value unboxed = Unbox(target);
      if (!unboxed.IsObject()) {
        return target;
      }
      const ObjectPtr& obj = unboxed.AsObject();
      LabelSetRef field_union = kEmptyLabelSetRef;
      for (const auto& [field, sub_spec] : spec->fields) {
        if (sub_spec->kind == LabellerSpec::Kind::kInvoke) {
          // Call-time labeller for obj.field(...): registered, not evaluated.
          invoke_labellers_[{obj.get(), InternAtom(field)}] = {sub_spec.get(),
                                                              labeller_name, unboxed};
          continue;
        }
        Value field_value = obj->Get(field);
        if (field_value.IsUndefined()) {
          continue;
        }
        LabelSetRef field_labels = kEmptyLabelSetRef;
        TURNSTILE_ASSIGN_OR_RETURN(
            replacement, ApplySpec(sub_spec.get(), field_value, &field_labels, labeller_name));
        if (replacement.IdentityKey() != field_value.IdentityKey() ||
            replacement.IsObject() != field_value.IsObject()) {
          obj->Set(field, replacement);
        }
        field_union = pool_->Union(field_union, field_labels);
      }
      AttachLabelRef(unboxed, field_union);
      InstallProxy(*obj);
      *out_labels = pool_->Union(*out_labels, field_union);
      return target;
    }
    case LabellerSpec::Kind::kInvoke: {
      // Top-level $invoke: applies to direct calls of the target function or
      // to any method of the target object (kAtomEmpty = wildcard method).
      const void* key = target.IdentityKey();
      if (key != nullptr) {
        invoke_labellers_[{key, kAtomEmpty}] = {spec, labeller_name, target};
      }
      return target;
    }
  }
  return target;
}

Result<Value> DiftTracker::Label(Value target, const std::string& labeller_name) {
  ++stats_.label_calls;
  // Everything under a __dift.* op bills to the monitor side of the overhead
  // split (invoke's app-callee window excepted).
  obs::ScopedMonitorAccounting monitor_window(profiler_);
  const LabellerSpec* spec = policy_->FindLabeller(labeller_name);
  if (spec == nullptr) {
    return PolicyError("unknown labeller '" + labeller_name + "'");
  }
  // The log needs the target's label set *before* the labeller runs: a
  // $const labeller firing on an already-labelled value is the
  // declassify/endorse idiom (see policy.h), and that distinction is exactly
  // prior != empty. The event records after the labeller ran, so it carries
  // its own start.
  LabelSetRef prior = kEmptyLabelSetRef;
  int64_t start_ns = 0;
  if (event_log_->enabled()) {
    prior = GetLabelRef(target);
    start_ns = event_log_->Now();
  }
  LabelSetRef labels = kEmptyLabelSetRef;
  TURNSTILE_ASSIGN_OR_RETURN(result, ApplySpec(spec, std::move(target), &labels,
                                               labeller_name));
  if (event_log_->enabled()) {
    // One event: an attach decision when labels were attached (it stands for
    // the dift_label journey step too), the bare journey step otherwise.
    obs::Event event;
    event.kind = obs::EventKind::kDiftLabel;
    if (labels != kEmptyLabelSetRef) {
      event.kind = spec->kind == LabellerSpec::Kind::kConst && prior != kEmptyLabelSetRef
                       ? obs::EventKind::kDeclassify
                       : obs::EventKind::kLabelAttach;
    }
    event.subject = labeller_name;
    event.vtime = interp_->VirtualNow();
    event.start_ns = start_ns;
    event.data = prior;
    event.out = labels;
    event.detail = pool_->Render(labels);
    event_log_->Record(std::move(event));
  }
  return result;
}

// --- operations --------------------------------------------------------------

Result<Value> DiftTracker::BinaryOp(const std::string& op, const Value& left,
                                    const Value& right) {
  return FusedBinary(op, BinaryOpFromString(op), left, right);
}

Result<Value> DiftTracker::FusedBinary(const std::string& spelling, turnstile::BinaryOp op,
                                       const Value& left, const Value& right) {
  ++stats_.binary_ops;
  obs::ScopedMonitorAccounting monitor_window(profiler_);
  obs::ScopedInterval interval(*event_log_);
  LabelSetRef left_ref = GetLabelRef(left);
  LabelSetRef right_ref = GetLabelRef(right);
  LabelSetRef labels = pool_->Union(left_ref, right_ref);
  // Cheap stack check first: the unlabelled fast path must not even touch
  // the log's cache line. The merge decision stands for the dift_binary_op
  // journey step too.
  if (labels != kEmptyLabelSetRef && event_log_->enabled()) {
    obs::Event event;
    event.kind = obs::EventKind::kMerge;
    event.subject = spelling;
    event.vtime = interp_->VirtualNow();
    event.data = left_ref;
    event.receiver = right_ref;
    event.out = labels;
    event.detail = pool_->Render(labels);
    interval.set_seq(event_log_->Record(std::move(event)));
  }
  if (op == turnstile::BinaryOp::kInvalid) {
    return UnimplementedError("binary operator " + spelling);
  }
  TURNSTILE_ASSIGN_OR_RETURN(completion, interp_->EvalBinaryOp(op, left, right));
  if (completion.IsAbrupt()) {
    return RuntimeError("binaryOp threw: " + completion.value.ToDisplayString());
  }
  Value result = completion.value;
  if (labels == kEmptyLabelSetRef) {
    return result;
  }
  if (result.IsValueType()) {
    ObjectPtr box = MakeObject();
    box->is_box = true;
    box->box_payload = result;
    ++stats_.boxes_created;
    result = Value(box);
  }
  AttachLabelRef(result, labels);
  return result;
}

void DiftTracker::RecordViolation(const std::string& sink, LabelSetRef data,
                                  LabelSetRef receiver) {
  ++stats_.violations;
  Violation violation;
  violation.time = interp_->VirtualNow();
  violation.sink = sink;
  violation.data_labels = pool_->Render(data);
  violation.receiver_labels = pool_->Render(receiver);
  const AtomTable& atoms = interp_->context().atoms();
  const obs::TraceContext trace = event_log_->current();
  violation.trace_id = trace.id;
  violation.origin_node = atoms.NameOf(trace.origin);

  // Provenance chain, oldest first: where each offending label came from ...
  for (LabelId id : pool_->Ids(data)) {
    const LabelOrigin* origin = OriginOf(id);
    if (origin == nullptr) {
      continue;
    }
    obs::Event event;
    event.trace_id = origin->trace.id;
    event.node = origin->trace.origin;
    event.seq = origin->seq;
    event.kind = obs::EventKind::kDiftLabel;
    event.vtime = origin->time;
    event.subject = origin->labeller;
    event.detail = "attached '" + policy_->space().NameOf(id) + "'";
    if (origin->trace.origin != kAtomEmpty) {
      event.detail += " at node '" + atoms.NameOf(origin->trace.origin) + "'";
    }
    violation.provenance.push_back(std::move(event));
  }
  // ... then the recorded journey of the violating message ...
  if (event_log_->enabled() && violation.trace_id != 0) {
    for (obs::Event& event : event_log_->EventsForTrace(violation.trace_id)) {
      violation.provenance.push_back(std::move(event));
    }
  }
  // ... ending at the sink that rejected the flow.
  obs::Event at_sink;
  at_sink.trace_id = violation.trace_id;
  at_sink.node = trace.origin;
  at_sink.kind = obs::EventKind::kViolation;
  at_sink.vtime = violation.time;
  at_sink.subject = sink;
  at_sink.detail = violation.data_labels + " cannot flow to " + violation.receiver_labels;
  violation.provenance.push_back(at_sink);
  if (event_log_->enabled()) {
    event_log_->Record(obs::EventKind::kViolation, sink, at_sink.detail, violation.time);
  }

  TURNSTILE_LOG(Warning) << "IFC violation at " << sink << ": "
                         << violation.data_labels << " cannot flow to "
                         << violation.receiver_labels;
  violations_.push_back(std::move(violation));
  PublishMetrics();  // violations are rare: keep the registry fresh for free
}

const std::string& DiftTracker::CheckDetail(LabelSetRef data, LabelSetRef receiver) {
  uint64_t key = (static_cast<uint64_t>(data) << 32) | receiver;
  auto it = check_detail_cache_.find(key);
  if (it != check_detail_cache_.end()) {
    return it->second;
  }
  std::string detail = pool_->Render(data) + " vs " + pool_->Render(receiver);
  return check_detail_cache_.emplace(key, std::move(detail)).first->second;
}

void DiftTracker::RecordFlowCheck(const std::string& sink, LabelSetRef data,
                                  LabelSetRef receiver, bool allowed, std::string rule) {
  obs::Event event;
  event.kind = obs::EventKind::kFlowCheck;
  event.allowed = allowed;
  event.subject = sink;
  event.data = data;
  event.receiver = receiver;
  event.detail = CheckDetail(data, receiver);
  event.rule = std::move(rule);
  event_log_->Record(std::move(event));
}

Result<bool> DiftTracker::Check(const Value& data, const Value& receiver,
                                const std::string& sink_name) {
  ++stats_.checks;
  obs::ScopedMonitorAccounting monitor_window(profiler_);
  obs::ScopedInterval interval(*event_log_);
  LabelSetRef data_labels = DeepLabelRef(data);
  LabelSetRef receiver_labels = GetLabelRef(receiver);
  if (event_log_->enabled()) {
    // The detail string is memoized per handle pair: a logged run pays one
    // flat lookup per check, not a label-name render. The journey step is
    // logged ahead of the verdict's flow_check decision below.
    interval.set_seq(event_log_->Record(obs::EventKind::kDiftCheck, sink_name,
                                        CheckDetail(data_labels, receiver_labels),
                                        interp_->VirtualNow()));
  }
  if (data_labels == kEmptyLabelSetRef) {
    if (event_log_->enabled()) {
      RecordFlowCheck(sink_name, data_labels, receiver_labels, true, "empty-data");
    }
    return true;
  }
  if (receiver_labels == kEmptyLabelSetRef) {
    if (options_.strict_unlabeled_receivers) {
      if (event_log_->enabled()) {
        RecordFlowCheck(sink_name, data_labels, receiver_labels, false,
                        "strict-unlabeled-receiver");
      }
      RecordViolation(sink_name, data_labels, receiver_labels);
      return false;
    }
    if (event_log_->enabled()) {
      RecordFlowCheck(sink_name, data_labels, receiver_labels, true, "unlabeled-receiver");
    }
    return true;
  }
  const std::string* rule = nullptr;
  bool allowed = policy_->rules().CanFlowSetExplained(
      data_labels, receiver_labels, *pool_, event_log_->enabled() ? &rule : nullptr);
  if (event_log_->enabled()) {
    RecordFlowCheck(sink_name, data_labels, receiver_labels, allowed,
                    rule != nullptr ? *rule : "");
  }
  if (!allowed) {
    RecordViolation(sink_name, data_labels, receiver_labels);
  }
  return allowed;
}

Result<Value> DiftTracker::FusedCheck(const Value& data, const Value& receiver) {
  // "check" is the sink name the `__dift.check` native hardcodes.
  TURNSTILE_ASSIGN_OR_RETURN(allowed, Check(data, receiver, "check"));
  return Value(allowed);
}

Result<Value> DiftTracker::FusedInvoke(const Value& target, const std::string& func,
                                       std::vector<Value> args) {
  return Invoke(target, func, std::move(args));
}

Result<Value> DiftTracker::Invoke(const Value& target, const std::string& func,
                                  std::vector<Value> args) {
  ++stats_.invokes;
  obs::ScopedMonitorAccounting monitor_window(profiler_);
  obs::ScopedInterval interval(*event_log_);
  if (event_log_->enabled()) {
    interval.set_seq(event_log_->Record(obs::EventKind::kDiftInvoke, func, "",
                                        interp_->VirtualNow()));
  }
  TURNSTILE_ASSIGN_OR_RETURN(fn_value, interp_->GetProperty(target, func));
  Value fn_unboxed = Unbox(fn_value);
  if (!fn_unboxed.IsFunction()) {
    return Interpreter::TypeError("invoke: '" + func + "' is not a function");
  }

  // Receiver label: a registered $invoke labeller wins; otherwise any label
  // already attached to the receiver object or the function itself. The
  // method name probe is a non-inserting atom lookup — a name that was never
  // interned anywhere cannot have been registered.
  LabelSetRef receiver_labels = kEmptyLabelSetRef;
  bool receiver_has_labeller = false;
  const LabellerSpec* invoke_spec = nullptr;
  const std::string* invoke_labeller_name = nullptr;
  // Policies without $invoke labellers (most of the corpus) skip the atom
  // lookup and the three map probes entirely.
  if (!invoke_labellers_.empty()) {
    const void* target_key = target.IdentityKey();
    Atom func_atom = AtomTable::Global().Find(func);
    auto it = invoke_labellers_.end();
    if (target_key != nullptr && func_atom != kAtomInvalid) {
      it = invoke_labellers_.find({target_key, func_atom});
    }
    if (it == invoke_labellers_.end()) {
      it = invoke_labellers_.find({fn_unboxed.IdentityKey(), kAtomEmpty});
    }
    if (it == invoke_labellers_.end() && target_key != nullptr) {
      it = invoke_labellers_.find({target_key, kAtomEmpty});
    }
    if (it != invoke_labellers_.end()) {
      invoke_spec = it->second.spec;
      invoke_labeller_name = &it->second.labeller_name;
    }
  }
  if (invoke_spec != nullptr) {
    receiver_has_labeller = true;
    TURNSTILE_ASSIGN_OR_RETURN(label_fn, CompileLabelFn(invoke_spec));
    ++stats_.labeller_fn_evals;
    std::vector<Value> unboxed_args;
    unboxed_args.reserve(args.size());
    for (const Value& arg : args) {
      unboxed_args.push_back(UnboxDeep(arg));
    }
    TURNSTILE_ASSIGN_OR_RETURN(
        label_value,
        interp_->CallFunction(label_fn, Value::Undefined(),
                              {UnboxDeep(target), Value(MakeArray(unboxed_args))}));
    TURNSTILE_ASSIGN_OR_RETURN(labels, LabelsFromValue(label_value));
    RecordOrigins(labels, *invoke_labeller_name);
    receiver_labels = labels;
    if (event_log_->enabled()) {
      obs::Event event;
      event.kind = obs::EventKind::kInvokeLabeller;
      event.subject = *invoke_labeller_name + "@" + func;
      event.out = receiver_labels;
      event.detail = pool_->Render(receiver_labels);
      event_log_->Record(std::move(event));
    }
  } else {
    receiver_labels = pool_->Union(GetLabelRef(target), GetLabelRef(fn_value));
  }

  // Data label: union over all arguments. Containers tracked by the proxy
  // mechanism already carry their children's labels, so a depth-2 walk
  // suffices to cover explicitly nested payloads (msg.payload) without
  // scanning whole object graphs on every call — except for *untracked*
  // large containers, which exhaustive instrumentation pays for (§6.2).
  LabelSetRef data_labels = kEmptyLabelSetRef;
  for (const Value& arg : args) {
    data_labels = pool_->Union(data_labels, DeepLabelRef(arg, 2));
  }

  bool allowed = true;
  if (data_labels != kEmptyLabelSetRef) {
    if (receiver_labels == kEmptyLabelSetRef) {
      allowed = !(receiver_has_labeller || options_.strict_unlabeled_receivers);
      if (event_log_->enabled()) {
        RecordFlowCheck(func, data_labels, receiver_labels, allowed,
                        allowed ? "unlabeled-receiver"
                                : (receiver_has_labeller ? "labeller-declined-receiver"
                                                         : "strict-unlabeled-receiver"));
      }
    } else {
      const std::string* rule = nullptr;
      allowed = policy_->rules().CanFlowSetExplained(
          data_labels, receiver_labels, *pool_, event_log_->enabled() ? &rule : nullptr);
      if (event_log_->enabled()) {
        RecordFlowCheck(func, data_labels, receiver_labels, allowed,
                        rule != nullptr ? *rule : "");
      }
    }
  }
  if (!allowed) {
    RecordViolation(func, data_labels, receiver_labels);
    if (options_.mode == Options::Mode::kEnforce) {
      return Value::Undefined();
    }
  }

  // Sink natives receive unwrapped values ("unwrapped upon writing to a sink
  // object", §4.4); everything else — in-language callees and utility natives
  // such as Array.push — keeps the boxes so tracking continues.
  std::vector<Value> call_args;
  if (fn_unboxed.AsFunction()->is_io_sink) {
    call_args.reserve(args.size());
    if (event_log_->enabled()) {
      // The unwrap point: labelled data is about to leave the managed world.
      obs::Event event;
      event.kind = obs::EventKind::kSinkWrite;
      event.subject = func;
      event.data = data_labels;
      event.receiver = receiver_labels;
      if (data_labels != kEmptyLabelSetRef) {
        event.detail = pool_->Render(data_labels);
      }
      event_log_->Record(std::move(event));
    }
    for (Value& arg : args) {
      call_args.push_back(UnboxDeep(arg));
    }
  } else {
    call_args = std::move(args);
  }
  // The dispatched callee is the *app's* function: its wall time must not be
  // billed to the monitor even though it runs inside a __dift.invoke.
  obs::ScopedAppAccounting app_window(profiler_);
  TURNSTILE_ASSIGN_OR_RETURN(
      result, interp_->CallFunction(fn_unboxed.AsFunction(), target, std::move(call_args)));
  app_window.End();
  // Fig. 5 (invoke): the returned value carries the union of argument labels.
  if (data_labels != kEmptyLabelSetRef) {
    if (result.IsValueType()) {
      if (!result.IsNullish()) {
        ObjectPtr box = MakeObject();
        box->is_box = true;
        box->box_payload = result;
        ++stats_.boxes_created;
        result = Value(box);
        AttachLabelRef(result, data_labels);
      }
    } else {
      AttachLabelRef(result, data_labels);
    }
  }
  return result;
}

// --- exhaustive tracking -----------------------------------------------------

Value DiftTracker::Track(Value v) {
  if (v.IsValueType()) {
    if (v.IsNullish() || v.IsBool()) {
      return v;  // nothing worth boxing
    }
    ObjectPtr box = MakeObject();
    box->is_box = true;
    box->box_payload = std::move(v);
    ++stats_.boxes_created;
    return Value(box);
  }
  // Reference types already carry a label slot; objects also get the proxy
  // trap so properties written later fold their labels in.
  if (v.IsObject() && !v.AsObject()->is_box) {
    InstallProxy(*v.AsObject());
  }
  return v;
}

Value DiftTracker::TrackDeep(Value v, int depth) {
  if (depth <= 0) {
    return Track(std::move(v));
  }
  if (v.IsObject() && !v.AsObject()->is_box) {
    const ObjectPtr& obj = v.AsObject();
    for (Atom prop_key : obj->insertion_order) {
      auto it = obj->properties.find(prop_key);
      if (it == obj->properties.end() || it->second.IsFunction()) {
        continue;
      }
      it->second = TrackDeep(it->second, depth - 1);
    }
    return Track(std::move(v));
  }
  if (v.IsArray()) {
    for (Value& element : v.AsArray()->elements) {
      if (!element.IsFunction()) {
        element = TrackDeep(element, depth - 1);
      }
    }
    return Track(std::move(v));
  }
  return Track(std::move(v));
}

// --- MiniScript bridge -------------------------------------------------------

void DiftTracker::Install() {
  ObjectPtr dift = MakeObject();
  dift->debug_tag = "__dift";
  DiftTracker* tracker = this;

  dift->Set("label", Value(MakeNativeFunction(
      "__dift.label",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return tracker->Label(ArgAt(args, 0), UnboxDeep(ArgAt(args, 1)).ToDisplayString());
      })));

  dift->Set("binaryOp", Value(MakeNativeFunction(
      "__dift.binaryOp",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return tracker->BinaryOp(UnboxDeep(ArgAt(args, 0)).ToDisplayString(), ArgAt(args, 1),
                                 ArgAt(args, 2));
      })));

  dift->Set("check", Value(MakeNativeFunction(
      "__dift.check",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        TURNSTILE_ASSIGN_OR_RETURN(
            allowed, tracker->Check(ArgAt(args, 0), ArgAt(args, 1), "check"));
        return Value(allowed);
      })));

  dift->Set("invoke", Value(MakeNativeFunction(
      "__dift.invoke",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value args_array = ArgAt(args, 2);
        std::vector<Value> call_args;
        if (args_array.IsArray()) {
          call_args = args_array.AsArray()->elements;
        }
        return tracker->Invoke(ArgAt(args, 0), UnboxDeep(ArgAt(args, 1)).ToDisplayString(),
                               std::move(call_args));
      })));

  dift->Set("violationCount", Value(MakeNativeFunction(
      "__dift.violationCount",
      [tracker](Interpreter&, const Value&, std::vector<Value>&) -> Result<Value> {
        return Value(static_cast<double>(tracker->violations_.size()));
      })));

  dift->Set("labelsOf", Value(MakeNativeFunction(
      "__dift.labelsOf",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        LabelSetRef labels = tracker->DeepLabelRef(ArgAt(args, 0));
        std::vector<Value> names;
        for (LabelId id : tracker->pool_->Ids(labels)) {
          names.push_back(Value(tracker->policy_->space().NameOf(id)));
        }
        return Value(MakeArray(std::move(names)));
      })));

  dift->Set("track", Value(MakeNativeFunction(
      "__dift.track",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return tracker->Track(ArgAt(args, 0));
      })));

  dift->Set("trackDeep", Value(MakeNativeFunction(
      "__dift.trackDeep",
      [tracker](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return tracker->TrackDeep(ArgAt(args, 0));
      })));

  dift->Set("unwrap", Value(MakeNativeFunction(
      "__dift.unwrap",
      [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return UnboxDeep(ArgAt(args, 0));
      })));

  interp_->DefineGlobal("__dift", Value(dift));
  // Register as the fused-ISA hook: the labelled opcodes (src/vm/bytecode.h)
  // now call straight into this tracker instead of through the bridge object.
  interp_->set_dift_hook(this);
}

}  // namespace turnstile
