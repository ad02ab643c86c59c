#include "src/interp/interp.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "src/lang/resolve.h"
#include "src/runtime/context.h"
#include "src/support/logging.h"
#include "src/support/stopwatch.h"
#include "src/support/strings.h"
#include "src/vm/vm.h"

namespace turnstile {

// Evaluates an expression into `var`; propagates host errors upward and
// abrupt completions (throw) to the caller.
#define TS_EVAL(var, node, env)                                        \
  Value var;                                                           \
  {                                                                    \
    TURNSTILE_ASSIGN_OR_RETURN(var##_c, EvalExpression((node), (env))); \
    if (var##_c.IsAbrupt()) {                                          \
      return var##_c;                                                  \
    }                                                                  \
    var = std::move(var##_c.value);                                    \
  }

namespace {
constexpr int kMaxCallDepth = 400;

// Largest length a property write (`a.length = n`, `a[i] = v`) may grow an
// array to. Arrays are dense vectors, so without a cap one write such as
// `a[1e12] = 1` would try to allocate terabytes and abort the process.
constexpr size_t kMaxDenseArrayLength = size_t{1} << 20;
}  // namespace

Interpreter::Interpreter() : Interpreter(RuntimeContext::Default()) {}

Interpreter::Interpreter(RuntimeContext& context) : context_(&context) {
  Heap::Scope heap_scope(&heap_);
  global_env_ = std::make_shared<Environment>();
  // Honor TURNSTILE_PROFILE / TURNSTILE_AUDIT before resolving handles so any
  // binary that constructs an interpreter picks up env-driven observability
  // (a no-op for isolated contexts: env vars bind to the default context).
  context.ApplyEnvObsConfig();
  event_log_ = &context.event_log();
  profiler_ = &context.profiler();
  obs::Metrics& metrics = context.metrics();
  metric_macrotasks_ = metrics.GetCounter("interp.macrotasks_executed");
  metric_microtasks_ = metrics.GetCounter("interp.microtasks_executed");
  metric_listeners_fired_ = metrics.GetCounter("interp.listeners_fired");
  metric_turn_seconds_ = metrics.GetHistogram("interp.turn_seconds");
  metric_vm_ops_ = metrics.GetCounter("vm.ops_executed");
  metric_vm_activation_ops_ = metrics.GetHistogram("vm.activation_ops");
  InstallBuiltins();
  InstallIoModules();
}

Interpreter::~Interpreter() { heap_.Teardown(); }

Status Interpreter::RunProgram(const Program& program) {
  Heap::Scope heap_scope(&heap_);
  // Parsed (and instrumented/re-parsed) trees carry no resolution annotations
  // until someone runs the sema pass; do it here so every execution path —
  // harnesses, the flow engine, DIFT labellers — gets slot-indexed frames.
  if (!IsResolved(program)) {
    ResolveProgram(program);
  }
  TURNSTILE_ASSIGN_OR_RETURN(completion,
                             exec_tier_ != ExecTier::kTreeWalk
                                 ? vm::Vm::ExecuteProgram(*this, program.root, global_env_)
                                 : EvalStatement(program.root, global_env_));
  if (completion.kind == Completion::Kind::kThrow) {
    return RuntimeError("uncaught exception: " + completion.value.ToDisplayString());
  }
  return Status::Ok();
}

// --- events and tasks --------------------------------------------------------

void Interpreter::AddListener(const ObjectPtr& emitter, const std::string& event,
                              FunctionPtr listener) {
  listeners_[emitter.get()][event].push_back(std::move(listener));
}

bool Interpreter::HasListener(const ObjectPtr& emitter, const std::string& event) const {
  auto it = listeners_.find(emitter.get());
  if (it == listeners_.end()) {
    return false;
  }
  auto jt = it->second.find(event);
  return jt != it->second.end() && !jt->second.empty();
}

void Interpreter::EmitEvent(const ObjectPtr& emitter, const std::string& event,
                            std::vector<Value> args, double delay_s) {
  Task task;
  task.time = virtual_time_ + delay_s;
  task.seq = task_seq_++;
  task.trace = event_log_->current();
  task.emitter = emitter;
  task.event = event;
  task.args = std::move(args);
  macrotasks_[{task.time, task.seq}] = std::move(task);
}

Status Interpreter::ExecuteTask(const Task& task) {
  // Run the task under the trace it was enqueued from, so events recorded by
  // flow nodes and DIFT ops downstream attribute to the injected message.
  obs::ScopedTrace trace_scope(*event_log_, task.trace);
  if (task.fn != nullptr) {
    obs::ScopedInterval turn(*event_log_);
    if (event_log_->enabled()) {
      turn.set_seq(event_log_->Record(obs::EventKind::kLoopTurn, task.fn->name, "callback",
                                      virtual_time_));
    }
    obs::ScopedAppAccounting turn_window(profiler_);
    TURNSTILE_ASSIGN_OR_RETURN(unused, CallFunction(task.fn, Value::Undefined(), task.args));
    (void)unused;
    return Status::Ok();
  }
  // Event task: snapshot the current listener list (a listener may re-register
  // or remove itself while running).
  std::vector<FunctionPtr> fire;
  auto it = listeners_.find(task.emitter.get());
  if (it != listeners_.end()) {
    auto jt = it->second.find(task.event);
    if (jt != it->second.end()) {
      fire = jt->second;
    }
  }
  obs::ScopedInterval turn(*event_log_);
  if (event_log_->enabled()) {
    turn.set_seq(event_log_->Record(obs::EventKind::kLoopTurn, task.event,
                                    std::to_string(fire.size()) + " listener(s)",
                                    virtual_time_));
  }
  obs::ScopedAppAccounting turn_window(profiler_);
  if (turn_window.active() && task.emitter != nullptr && task.emitter->debug_tag == "rednode") {
    // A flow node's turn: its latency lands in the per-node histogram.
    turn_window.set_node(task.emitter->Get("id").ToDisplayString());
  }
  metric_listeners_fired_->Increment(fire.size());
  for (const FunctionPtr& listener : fire) {
    TURNSTILE_ASSIGN_OR_RETURN(unused, CallFunction(listener, Value::Undefined(), task.args));
    (void)unused;
  }
  return Status::Ok();
}

void Interpreter::ScheduleTask(FunctionPtr fn, std::vector<Value> args, double delay_s) {
  Task task;
  task.time = virtual_time_ + delay_s;
  task.seq = task_seq_++;
  task.trace = event_log_->current();
  task.fn = std::move(fn);
  task.args = std::move(args);
  macrotasks_[{task.time, task.seq}] = std::move(task);
}

void Interpreter::ScheduleMicrotask(FunctionPtr fn, std::vector<Value> args) {
  Task task;
  task.time = virtual_time_;
  task.seq = task_seq_++;
  task.trace = event_log_->current();
  task.fn = std::move(fn);
  task.args = std::move(args);
  microtasks_.push_back(std::move(task));
}

Status Interpreter::DrainMicrotasks(int max_tasks) {
  int executed = 0;
  while (!microtasks_.empty()) {
    if (++executed > max_tasks) {
      return InternalError("microtask limit exceeded (possible livelock)");
    }
    Task task = std::move(microtasks_.front());
    microtasks_.pop_front();
    metric_microtasks_->Increment();
    obs::ScopedTrace trace_scope(*event_log_, task.trace);
    obs::ScopedInterval turn(*event_log_);
    if (event_log_->enabled()) {
      turn.set_seq(event_log_->Record(obs::EventKind::kLoopTurn, task.fn->name, "microtask",
                                      virtual_time_));
    }
    obs::ScopedAppAccounting turn_window(profiler_);
    TURNSTILE_ASSIGN_OR_RETURN(unused, CallFunction(task.fn, Value::Undefined(), task.args));
    (void)unused;
  }
  return Status::Ok();
}

Status Interpreter::RunEventLoop(int max_tasks) {
  Heap::Scope heap_scope(&heap_);
  int executed = 0;
  while (true) {
    TURNSTILE_RETURN_IF_ERROR(DrainMicrotasks());
    if (macrotasks_.empty()) {
      return Status::Ok();
    }
    if (++executed > max_tasks) {
      return InternalError("macrotask limit exceeded");
    }
    auto it = macrotasks_.begin();
    Task task = std::move(it->second);
    macrotasks_.erase(it);
    if (task.time > virtual_time_) {
      virtual_time_ = task.time;
    }
    metric_macrotasks_->Increment();
    Stopwatch turn_watch;
    TURNSTILE_RETURN_IF_ERROR(ExecuteTask(task));
    metric_turn_seconds_->Observe(turn_watch.ElapsedSeconds());
  }
}

// --- modules -----------------------------------------------------------------

void Interpreter::RegisterModule(const std::string& name,
                                 std::function<Value(Interpreter&)> factory) {
  module_factories_[name] = std::move(factory);
  module_cache_.erase(name);
}

Result<Value> Interpreter::RequireModule(const std::string& name) {
  Heap::Scope heap_scope(&heap_);
  auto cached = module_cache_.find(name);
  if (cached != module_cache_.end()) {
    return cached->second;
  }
  auto it = module_factories_.find(name);
  if (it == module_factories_.end()) {
    return NotFoundError("module not found: " + name);
  }
  Value module = it->second(*this);
  module_cache_[name] = module;
  return module;
}

// --- functions ---------------------------------------------------------------

FunctionPtr Interpreter::MakeClosure(const Node& node, const EnvPtr& env) {
  BumpHeapWriteEpoch();  // fresh identity (see value.h epoch contract)
  FunctionPtr fn = std::make_shared<FunctionObject>();
  fn->name = node.str;
  fn->params = node.children[0];
  fn->body = node.children[1];
  fn->closure = env;
  fn->frame_size = node.frame_size;
  // Only function *expressions* carry a self-binding slot; on declarations
  // `slot` is the name's slot in the enclosing scope.
  fn->self_slot = node.kind == NodeKind::kFunctionExpr ? node.slot : -1;
  fn->is_arrow = node.kind == NodeKind::kArrowFunction;
  fn->is_async = node.num != 0;
  return fn;
}

Result<Value> Interpreter::CallFunction(const FunctionPtr& fn, const Value& this_value,
                                        std::vector<Value> args) {
  if (fn == nullptr) {
    return TypeError("value is not a function");
  }
  Heap::Scope heap_scope(&heap_);
  // Instrumenting profiler frame hook: one branch when disabled. Covers
  // natives (__dift.* dispatch included) and both execution tiers — this is
  // the single funnel every call goes through.
  obs::ScopedProfileFrame profile_frame;
  if (profiler_->enabled()) {
    profile_frame.Begin(profiler_, fn.get(), fn->name,
                        fn->body != nullptr ? static_cast<int>(fn->body->loc.line) : 0);
  }
  if (fn->IsNative()) {
    return fn->native(*this, this_value, args);
  }
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    return RuntimeError("maximum call depth exceeded in " + fn->name);
  }
  EnvPtr call_env = Environment::MakeChild(fn->closure, fn->frame_size);
  // `this`: regular functions bind it per call; arrows inherit lexically (no
  // binding defined here, so lookup reaches the defining scope's binding).
  // Resolved frames keep `this` at slot 0 (see resolve.h).
  if (!fn->is_arrow) {
    const Value& this_binding = fn->has_bound_this ? fn->bound_this : this_value;
    if (fn->frame_size > 0) {
      call_env->slots[0] = this_binding;
    } else {
      call_env->Define("this", this_binding);
    }
  }
  // Named function expressions see themselves; parameters are written after so
  // a parameter reusing the name wins.
  if (fn->self_slot >= 0) {
    call_env->slots[static_cast<size_t>(fn->self_slot)] = Value(fn);
  }
  const auto& params = fn->params->children;
  size_t arg_index = 0;
  for (const NodePtr& param : params) {
    if (param->kind == NodeKind::kRestParam) {
      std::vector<Value> rest(args.begin() + static_cast<long>(std::min(arg_index, args.size())),
                              args.end());
      Value rest_array = Value(MakeArray(std::move(rest)));
      if (param->slot >= 0) {
        call_env->slots[static_cast<size_t>(param->slot)] = std::move(rest_array);
      } else {
        call_env->Define(param->str, std::move(rest_array));
      }
      break;
    }
    Value arg = arg_index < args.size() ? args[arg_index] : Value::Undefined();
    if (param->slot >= 0) {
      call_env->slots[static_cast<size_t>(param->slot)] = std::move(arg);
    } else {
      call_env->Define(param->str, std::move(arg));
    }
    ++arg_index;
  }
  Result<Completion> body_result =
      exec_tier_ != ExecTier::kTreeWalk
          ? vm::Vm::ExecuteBody(*this, fn->body, call_env, fn->params->children)
          : fn->body->kind == NodeKind::kBlockStmt ? EvalBlock(fn->body, call_env)
                                                   : EvalExpression(fn->body, call_env);
  --call_depth_;
  TURNSTILE_ASSIGN_OR_RETURN(completion, std::move(body_result));
  // Async functions deliver their result through an (already settled) promise.
  auto wrap = [this, &fn](Value v) -> Value {
    if (fn->is_async && !(v.IsObject() && v.AsObject()->Has("__promiseState"))) {
      return MakeResolvedPromise(*this, std::move(v));
    }
    return v;
  };
  switch (completion.kind) {
    case Completion::Kind::kNormal:
      // Arrow expression bodies return the expression value; block bodies
      // return undefined when falling off the end.
      return wrap(fn->body->kind == NodeKind::kBlockStmt ? Value::Undefined()
                                                         : completion.value);
    case Completion::Kind::kReturn:
      return wrap(completion.value);
    case Completion::Kind::kThrow:
      SetPendingThrow(completion.value);
      return RuntimeError("uncaught exception in " + (fn->name.empty() ? "<anonymous>" : fn->name) +
                          ": " + completion.value.ToDisplayString());
    default:
      return RuntimeError("illegal break/continue across function boundary");
  }
}

// Like CallFunction but keeps abrupt `throw` completions as completions so
// they propagate through MiniScript try/catch.
static Result<Completion> CallAsCompletion(Interpreter& interp, const FunctionPtr& fn,
                                           const Value& this_value, std::vector<Value> args);

// --- properties --------------------------------------------------------------

// Array and string method factories (implemented in builtins.cc).
FunctionPtr GetArrayMethod(const std::string& name);
FunctionPtr GetStringMethod(const std::string& name);
FunctionPtr GetFunctionMethod(const std::string& name);

Result<Value> Interpreter::GetProperty(const Value& object, Atom key) {
  if (object.IsObject()) {
    const ObjectPtr& obj = object.AsObject();
    if (obj->is_box) {
      return GetProperty(obj->box_payload, key);
    }
    auto it = obj->properties.find(key);
    if (it != obj->properties.end()) {
      return it->second;
    }
    if (obj->class_info != nullptr) {
      FunctionPtr method = obj->class_info->FindMethod(AtomName(key));
      if (method != nullptr) {
        return Value(method);
      }
    }
    return Value::Undefined();
  }
  // Arrays/strings/functions key their synthetic properties by name.
  return GetProperty(object, AtomName(key));
}

Result<Value> Interpreter::GetProperty(const Value& object, const std::string& key) {
  if (object.IsObject()) {
    const ObjectPtr& obj = object.AsObject();
    if (obj->is_box) {
      // Forward property access to the payload (e.g. boxedString.length).
      return GetProperty(obj->box_payload, key);
    }
    Atom atom = AtomTable::Global().Find(key);
    if (atom != kAtomInvalid) {
      auto it = obj->properties.find(atom);
      if (it != obj->properties.end()) {
        return it->second;
      }
    }
    if (obj->class_info != nullptr) {
      FunctionPtr method = obj->class_info->FindMethod(key);
      if (method != nullptr) {
        return Value(method);
      }
    }
    return Value::Undefined();
  }
  if (object.IsArray()) {
    if (key == "length") {
      return Value(static_cast<double>(object.AsArray()->elements.size()));
    }
    FunctionPtr method = GetArrayMethod(key);
    if (method != nullptr) {
      return Value(method);
    }
    // Numeric string keys index the array.
    char* end = nullptr;
    long index = std::strtol(key.c_str(), &end, 10);
    if (end != key.c_str() && *end == '\0') {
      const auto& elements = object.AsArray()->elements;
      if (index >= 0 && static_cast<size_t>(index) < elements.size()) {
        return elements[static_cast<size_t>(index)];
      }
    }
    return Value::Undefined();
  }
  if (object.IsString()) {
    if (key == "length") {
      return Value(static_cast<double>(object.AsString().size()));
    }
    FunctionPtr method = GetStringMethod(key);
    if (method != nullptr) {
      return Value(method);
    }
    return Value::Undefined();
  }
  if (object.IsFunction()) {
    FunctionPtr method = GetFunctionMethod(key);
    if (method != nullptr) {
      return Value(method);
    }
    return Value::Undefined();
  }
  if (object.IsNullish()) {
    return TypeError("cannot read property '" + key + "' of " +
                     (object.IsNull() ? "null" : "undefined"));
  }
  return Value::Undefined();  // number/bool property access
}

Status Interpreter::SetProperty(const Value& object, Atom key, Value value) {
  if (object.IsObject()) {
    const ObjectPtr& obj = object.AsObject();
    if (obj->is_box) {
      return SetProperty(obj->box_payload, key, std::move(value));
    }
    obj->Set(key, std::move(value));
    return Status::Ok();
  }
  return SetProperty(object, AtomName(key), std::move(value));
}

Status Interpreter::SetProperty(const Value& object, const std::string& key, Value value) {
  if (object.IsObject()) {
    const ObjectPtr& obj = object.AsObject();
    if (obj->is_box) {
      return SetProperty(obj->box_payload, key, std::move(value));
    }
    obj->Set(key, std::move(value));
    return Status::Ok();
  }
  if (object.IsArray()) {
    BumpHeapWriteEpoch();
    auto& elements = object.AsArray()->elements;
    if (key == "length") {
      // JS accepts integral lengths in [0, 2^32 - 1]; growth is further
      // capped because elements are stored densely.
      double length = value.ToNumber();
      if (!(length >= 0 && length <= 4294967295.0) || length != std::floor(length) ||
          (length > kMaxDenseArrayLength && length > static_cast<double>(elements.size()))) {
        return RangeError("invalid array length");
      }
      elements.resize(static_cast<size_t>(length));
      return Status::Ok();
    }
    char* end = nullptr;
    long index = std::strtol(key.c_str(), &end, 10);
    if (end != key.c_str() && *end == '\0' && index >= 0) {
      if (static_cast<size_t>(index) >= elements.size()) {
        if (static_cast<size_t>(index) >= kMaxDenseArrayLength) {
          return RangeError("invalid array length");
        }
        elements.resize(static_cast<size_t>(index) + 1);
      }
      elements[static_cast<size_t>(index)] = std::move(value);
      return Status::Ok();
    }
    return Status::Ok();  // non-index properties on arrays are dropped
  }
  return TypeError("cannot set property '" + key + "' on a " + object.TypeName());
}

Value Interpreter::MakeError(const std::string& message) {
  ObjectPtr err = MakeObject();
  err->Set("message", Value(message));
  err->debug_tag = "error";
  return Value(err);
}

// --- classes -----------------------------------------------------------------

Status Interpreter::DeclareClass(const Node& node, const EnvPtr& env) {
  auto info = std::make_shared<ClassInfo>();
  info->name = node.str;
  if (node.children[0]->kind != NodeKind::kEmpty) {
    Value* super = ResolveIdentPtr(node.children[0], env);
    if (super == nullptr || !super->IsFunction() ||
        super->AsFunction()->construct_class == nullptr) {
      return TypeError("superclass " + node.children[0]->str + " is not a class");
    }
    info->superclass = super->AsFunction()->construct_class;
  }
  for (size_t i = 1; i < node.children.size(); ++i) {
    const NodePtr& method_node = node.children[i];
    FunctionPtr method = MakeClosure(*method_node, env);
    info->methods[method_node->str] = method;
  }
  BumpHeapWriteEpoch();
  FunctionPtr ctor = std::make_shared<FunctionObject>();
  ctor->name = node.str;
  ctor->construct_class = info;
  // Calling the class object without `new` is a TypeError in JS; we model
  // the constructor function as a native that reports this.
  std::string class_name = node.str;
  ctor->native = [class_name](Interpreter&, const Value&,
                              std::vector<Value>&) -> Result<Value> {
    return Interpreter::TypeError("class " + class_name + " must be called with new");
  };
  if (node.slot >= 0) {
    env->slots[static_cast<size_t>(node.slot)] = Value(ctor);
  } else {
    env->Define(node.str, Value(ctor));
  }
  return Status::Ok();
}

// --- identifier storage ------------------------------------------------------

Value* Interpreter::ResolveIdentPtr(const NodePtr& node, const EnvPtr& env) {
  if (node->hops >= 0) {
    // Resolved local: the frame chain mirrors the static scope chain by
    // construction, so `hops` parents up there is a frame with `slot` in range.
    Environment* frame = env.get();
    for (int32_t i = 0; i < node->hops; ++i) {
      frame = frame->parent.get();
    }
    return &frame->slots[static_cast<size_t>(node->slot)];
  }
  if (node->hops == kHopsGlobal) {
    // Globals (and unbound names — builtins, implicit globals) live in the
    // name-keyed global environment; probe it without walking the chain.
    return global_env_->LookupLocal(node->atom);
  }
  return env->Lookup(node->str);
}

// --- expression evaluation ---------------------------------------------------

Result<Completion> Interpreter::EvalArgs(const NodePtr& call, size_t first_index,
                                         const EnvPtr& env, std::vector<Value>* out) {
  for (size_t i = first_index; i < call->children.size(); ++i) {
    const NodePtr& arg_node = call->children[i];
    if (arg_node->kind == NodeKind::kSpreadElement) {
      TS_EVAL(spread, arg_node->children[0], env);
      Value unboxed = Unbox(spread);
      if (!unboxed.IsArray()) {
        return TypeError("spread argument is not an array");
      }
      for (const Value& element : unboxed.AsArray()->elements) {
        out->push_back(element);
      }
    } else {
      TS_EVAL(arg, arg_node, env);
      out->push_back(std::move(arg));
    }
  }
  return Completion::Normal();
}

Result<Completion> Interpreter::EvalCall(const NodePtr& node, const EnvPtr& env) {
  const NodePtr& callee = node->children[0];
  Value this_value = Value::Undefined();
  Value fn_value;
  if (callee->kind == NodeKind::kMemberExpr) {
    TS_EVAL(object, callee->children[0], env);
    if (callee->num != 0 && object.IsNullish()) {  // optional call a?.b()
      return Completion::Normal(Value::Undefined());
    }
    TURNSTILE_ASSIGN_OR_RETURN(member, callee->atom != kAtomEmpty
                                           ? GetProperty(object, callee->atom)
                                           : GetProperty(object, callee->str));
    this_value = object;
    fn_value = member;
  } else if (callee->kind == NodeKind::kIndexExpr) {
    TS_EVAL(object, callee->children[0], env);
    TS_EVAL(key, callee->children[1], env);
    TURNSTILE_ASSIGN_OR_RETURN(member, GetProperty(object, Unbox(key).ToDisplayString()));
    this_value = object;
    fn_value = member;
  } else {
    TS_EVAL(direct, callee, env);
    fn_value = direct;
  }
  std::vector<Value> args;
  {
    TURNSTILE_ASSIGN_OR_RETURN(c, EvalArgs(node, 1, env, &args));
    if (c.IsAbrupt()) {
      return c;
    }
  }
  return InvokeValue(fn_value, this_value, std::move(args), callee->str);
}

Result<Completion> Interpreter::InvokeValue(const Value& fn_value, const Value& this_value,
                                            std::vector<Value> args,
                                            const std::string& callee_name) {
  Value fn_unboxed = Unbox(fn_value);
  if (!fn_unboxed.IsFunction()) {
    return TypeError("'" + callee_name + "' is not a function (it is " +
                     std::string(fn_unboxed.TypeName()) + ")");
  }
  return CallAsCompletion(*this, fn_unboxed.AsFunction(), this_value, std::move(args));
}

Result<Completion> Interpreter::EvalNew(const NodePtr& node, const EnvPtr& env) {
  TS_EVAL(callee, node->children[0], env);
  std::vector<Value> args;
  {
    TURNSTILE_ASSIGN_OR_RETURN(c, EvalArgs(node, 1, env, &args));
    if (c.IsAbrupt()) {
      return c;
    }
  }
  return ConstructValue(callee, std::move(args));
}

Result<Completion> Interpreter::ConstructValue(const Value& callee, std::vector<Value> args) {
  Value fn_unboxed = Unbox(callee);
  if (!fn_unboxed.IsFunction()) {
    return TypeError("new target is not constructible");
  }
  const FunctionPtr& ctor = fn_unboxed.AsFunction();
  ObjectPtr instance = MakeObject();
  if (ctor->construct_class != nullptr) {
    instance->class_info = ctor->construct_class;
    FunctionPtr constructor = ctor->construct_class->FindMethod("constructor");
    if (constructor != nullptr) {
      TURNSTILE_ASSIGN_OR_RETURN(c, CallAsCompletion(*this, constructor, Value(instance),
                                                     std::move(args)));
      if (c.IsAbrupt()) {
        return c;
      }
    }
    return Completion::Normal(Value(instance));
  }
  // Plain / native function used as constructor: call with fresh `this`; if it
  // returns an object, that wins (lets natives like Promise produce their own).
  TURNSTILE_ASSIGN_OR_RETURN(c, CallAsCompletion(*this, ctor, Value(instance), std::move(args)));
  if (c.IsAbrupt()) {
    return c;
  }
  if (c.value.IsObject() || c.value.IsArray() || c.value.IsFunction()) {
    return Completion::Normal(c.value);
  }
  return Completion::Normal(Value(instance));
}

namespace {

// Loose equality (==): a pragmatic subset of the JS algorithm.
bool LooseEquals(const Value& a, const Value& b) {
  if (a.IsNullish() && b.IsNullish()) {
    return true;
  }
  if (a.IsNullish() || b.IsNullish()) {
    return false;
  }
  if (a.IsBool() || b.IsBool() || (a.IsNumber() && b.IsString()) ||
      (a.IsString() && b.IsNumber())) {
    double an = a.ToNumber();
    double bn = b.ToNumber();
    return an == bn && !std::isnan(an);
  }
  return a.StrictEquals(b);
}

}  // namespace

BinaryOp BinaryOpFromString(const std::string& op) {
  switch (op.size()) {
    case 1:
      switch (op[0]) {
        case '+': return BinaryOp::kAdd;
        case '-': return BinaryOp::kSub;
        case '*': return BinaryOp::kMul;
        case '/': return BinaryOp::kDiv;
        case '%': return BinaryOp::kMod;
        case '<': return BinaryOp::kLt;
        case '>': return BinaryOp::kGt;
        case '&': return BinaryOp::kBitAnd;
        case '|': return BinaryOp::kBitOr;
        case '^': return BinaryOp::kBitXor;
        default: return BinaryOp::kInvalid;
      }
    case 2:
      if (op == "**") return BinaryOp::kPow;
      if (op == "==") return BinaryOp::kLooseEq;
      if (op == "!=") return BinaryOp::kLooseNe;
      if (op == "<=") return BinaryOp::kLe;
      if (op == ">=") return BinaryOp::kGe;
      if (op == "<<") return BinaryOp::kShl;
      if (op == ">>") return BinaryOp::kShr;
      if (op == "in") return BinaryOp::kIn;
      return BinaryOp::kInvalid;
    case 3:
      if (op == "===") return BinaryOp::kStrictEq;
      if (op == "!==") return BinaryOp::kStrictNe;
      return BinaryOp::kInvalid;
    default:
      return BinaryOp::kInvalid;
  }
}

Result<Completion> Interpreter::EvalBinary(const std::string& op, const Value& left_in,
                                           const Value& right_in) {
  BinaryOp decoded = BinaryOpFromString(op);
  if (decoded == BinaryOp::kInvalid) {
    return UnimplementedError("binary operator " + op);
  }
  return EvalBinaryOp(decoded, left_in, right_in);
}

Result<Completion> Interpreter::EvalBinaryOp(BinaryOp op, const Value& left_in,
                                             const Value& right_in) {
  // Boxes are transparent to operators (the DIFT binaryOp API relies on this
  // when re-dispatching an instrumented operation).
  Value left = Unbox(left_in);
  Value right = Unbox(right_in);
  switch (op) {
    case BinaryOp::kAdd:
      if (left.IsString() || right.IsString()) {
        // One allocation for the result; string operands are not copied.
        std::string left_text;
        std::string right_text;
        const std::string& l =
            left.IsString() ? left.AsString() : (left_text = left.ToDisplayString());
        const std::string& r =
            right.IsString() ? right.AsString() : (right_text = right.ToDisplayString());
        std::string joined;
        joined.reserve(l.size() + r.size());
        joined.append(l).append(r);
        return Completion::Normal(Value(std::move(joined)));
      }
      return Completion::Normal(Value(left.ToNumber() + right.ToNumber()));
    case BinaryOp::kSub:
      return Completion::Normal(Value(left.ToNumber() - right.ToNumber()));
    case BinaryOp::kMul:
      return Completion::Normal(Value(left.ToNumber() * right.ToNumber()));
    case BinaryOp::kDiv:
      return Completion::Normal(Value(left.ToNumber() / right.ToNumber()));
    case BinaryOp::kMod:
      return Completion::Normal(Value(std::fmod(left.ToNumber(), right.ToNumber())));
    case BinaryOp::kPow:
      return Completion::Normal(Value(std::pow(left.ToNumber(), right.ToNumber())));
    case BinaryOp::kLooseEq:
      return Completion::Normal(Value(LooseEquals(left, right)));
    case BinaryOp::kLooseNe:
      return Completion::Normal(Value(!LooseEquals(left, right)));
    case BinaryOp::kStrictEq:
      return Completion::Normal(Value(left.StrictEquals(right)));
    case BinaryOp::kStrictNe:
      return Completion::Normal(Value(!left.StrictEquals(right)));
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe: {
      bool result = false;
      if (left.IsString() && right.IsString()) {
        int cmp = left.AsString().compare(right.AsString());
        result = op == BinaryOp::kLt   ? cmp < 0
                 : op == BinaryOp::kGt ? cmp > 0
                 : op == BinaryOp::kLe ? cmp <= 0
                                       : cmp >= 0;
      } else {
        double l = left.ToNumber();
        double r = right.ToNumber();
        result = op == BinaryOp::kLt   ? l < r
                 : op == BinaryOp::kGt ? l > r
                 : op == BinaryOp::kLe ? l <= r
                                       : l >= r;
      }
      return Completion::Normal(Value(result));
    }
    case BinaryOp::kBitAnd:
    case BinaryOp::kBitOr:
    case BinaryOp::kBitXor:
    case BinaryOp::kShl:
    case BinaryOp::kShr: {
      int64_t l = NumberToInt(left.ToNumber());
      int64_t r = NumberToInt(right.ToNumber());
      int64_t result = op == BinaryOp::kBitAnd   ? l & r
                       : op == BinaryOp::kBitOr  ? l | r
                       : op == BinaryOp::kBitXor ? l ^ r
                       : op == BinaryOp::kShl    ? l << (r & 63)
                                                 : l >> (r & 63);
      return Completion::Normal(Value(static_cast<double>(result)));
    }
    case BinaryOp::kIn:
      if (right.IsObject()) {
        return Completion::Normal(Value(right.AsObject()->Has(left.ToDisplayString())));
      }
      if (right.IsArray()) {
        // Comparing the double directly equals comparing its truncation, and
        // NaN or negative indices (never present) need no cast.
        double index = left.ToNumber();
        return Completion::Normal(
            Value(index >= 0 && index < static_cast<double>(right.AsArray()->elements.size())));
      }
      return TypeError("'in' requires an object operand");
    case BinaryOp::kInvalid:
      break;
  }
  return UnimplementedError("binary operator");
}

Result<Completion> Interpreter::EvalAssignment(const NodePtr& node, const EnvPtr& env) {
  const NodePtr& target = node->children[0];
  const std::string& op = node->str;

  // Compute the new value. For compound ops, read the old value first.
  auto compute = [&](const Value& old_value) -> Result<Completion> {
    TS_EVAL(rhs, node->children[1], env);
    if (op == "=") {
      return Completion::Normal(rhs);
    }
    if (op == "&&=") {
      return Completion::Normal(old_value.Truthy() ? rhs : old_value);
    }
    if (op == "||=") {
      return Completion::Normal(old_value.Truthy() ? old_value : rhs);
    }
    if (op == "?\?=") {
      return Completion::Normal(old_value.IsNullish() ? rhs : old_value);
    }
    std::string base_op = op.substr(0, op.size() - 1);  // "+=" -> "+"
    return EvalBinary(base_op, old_value, rhs);
  };

  if (target->kind == NodeKind::kIdentifier) {
    // Resolve the storage location once; binding pointers stay valid across
    // the RHS evaluation (see environment.h), so the write needs no second
    // chain walk.
    Value* binding = ResolveIdentPtr(target, env);
    Value old_value;
    if (op != "=") {
      if (binding == nullptr) {
        return RuntimeError("assignment to undeclared variable " + target->str);
      }
      old_value = *binding;
    }
    TURNSTILE_ASSIGN_OR_RETURN(c, compute(old_value));
    if (c.IsAbrupt()) {
      return c;
    }
    if (binding != nullptr) {
      *binding = c.value;
    } else {
      // Implicit global definition (sloppy-mode JS); corpus apps rely on it
      // for framework-injected globals.
      global_env_->Define(target->str, c.value);
    }
    return Completion::Normal(c.value);
  }

  if (target->kind == NodeKind::kMemberExpr || target->kind == NodeKind::kIndexExpr) {
    TS_EVAL(object, target->children[0], env);
    std::string key;
    if (target->kind == NodeKind::kMemberExpr) {
      key = target->str;
    } else {
      TS_EVAL(key_value, target->children[1], env);
      key = Unbox(key_value).ToDisplayString();
    }
    Value old_value;
    if (op != "=") {
      TURNSTILE_ASSIGN_OR_RETURN(read, GetProperty(object, key));
      old_value = read;
    }
    TURNSTILE_ASSIGN_OR_RETURN(c, compute(old_value));
    if (c.IsAbrupt()) {
      return c;
    }
    TURNSTILE_RETURN_IF_ERROR(SetProperty(object, key, c.value));
    return Completion::Normal(c.value);
  }
  return TypeError("invalid assignment target");
}

Result<Completion> Interpreter::EvalExpression(const NodePtr& node, const EnvPtr& env) {
  ++eval_count_;
  switch (node->kind) {
    case NodeKind::kNumberLit:
      return Completion::Normal(Value(node->num));
    case NodeKind::kStringLit:
      return Completion::Normal(Value(node->str));
    case NodeKind::kBoolLit:
      return Completion::Normal(Value(node->num != 0));
    case NodeKind::kNullLit:
      return Completion::Normal(Value::Null());
    case NodeKind::kUndefinedLit:
      return Completion::Normal(Value::Undefined());
    case NodeKind::kThisExpr: {
      if (node->hops >= 0) {
        Environment* frame = env.get();
        for (int32_t i = 0; i < node->hops; ++i) {
          frame = frame->parent.get();
        }
        return Completion::Normal(frame->slots[0]);
      }
      Value* slot = env->Lookup("this");
      return Completion::Normal(slot != nullptr ? *slot : Value::Undefined());
    }
    case NodeKind::kIdentifier: {
      Value* binding = ResolveIdentPtr(node, env);
      if (binding == nullptr) {
        return RuntimeError("reference to undeclared variable " + node->str + " at " +
                            node->loc.ToString());
      }
      return Completion::Normal(*binding);
    }
    case NodeKind::kArrayLit:
      return EvalArrayLiteral(node, env);
    case NodeKind::kObjectLit:
      return EvalObjectLiteral(node, env);
    case NodeKind::kFunctionExpr:
    case NodeKind::kArrowFunction:
      return Completion::Normal(Value(MakeClosure(*node, env)));
    case NodeKind::kCallExpr:
      return EvalCall(node, env);
    case NodeKind::kNewExpr:
      return EvalNew(node, env);
    case NodeKind::kMemberExpr:
    case NodeKind::kIndexExpr:
      return EvalMemberRead(node, env);
    case NodeKind::kBinaryExpr: {
      TS_EVAL(left, node->children[0], env);
      TS_EVAL(right, node->children[1], env);
      return EvalBinary(node->str, left, right);
    }
    case NodeKind::kLogicalExpr:
      return EvalLogical(node, env);
    case NodeKind::kUnaryExpr:
      return EvalUnary(node, env);
    case NodeKind::kUpdateExpr:
      return EvalUpdate(node, env);
    case NodeKind::kAssignExpr:
      return EvalAssignment(node, env);
    case NodeKind::kConditionalExpr: {
      TS_EVAL(cond, node->children[0], env);
      return EvalExpression(cond.Truthy() ? node->children[1] : node->children[2], env);
    }
    case NodeKind::kSpreadElement:
      return TypeError("spread element outside call/array context");
    case NodeKind::kAwaitExpr: {
      TS_EVAL(operand, node->children[0], env);
      return AwaitValue(operand);
    }
    case NodeKind::kSequenceExpr:
      return EvalSequence(node, env);
    default:
      return InternalError(std::string("unexpected ") + NodeKindName(node->kind) +
                           " in expression position");
  }
}

// The local-heavy cases of EvalExpression and EvalStatement live in their own
// functions. Every MiniScript call recurses through both switches, and
// unoptimized (sanitizer) builds give each case's temporaries their own stack
// slots: with those cases inline, one call level took ~32 KB and a recursion
// overflowed an 8 MB stack before kMaxCallDepth.
Result<Completion> Interpreter::EvalArrayLiteral(const NodePtr& node, const EnvPtr& env) {
  std::vector<Value> elements;
  for (const NodePtr& element : node->children) {
    if (element->kind == NodeKind::kSpreadElement) {
      TS_EVAL(spread, element->children[0], env);
      Value unboxed = Unbox(spread);
      if (!unboxed.IsArray()) {
        return TypeError("spread element is not an array");
      }
      for (const Value& v : unboxed.AsArray()->elements) {
        elements.push_back(v);
      }
    } else {
      TS_EVAL(v, element, env);
      elements.push_back(std::move(v));
    }
  }
  return Completion::Normal(Value(MakeArray(std::move(elements))));
}

Result<Completion> Interpreter::EvalObjectLiteral(const NodePtr& node, const EnvPtr& env) {
  ObjectPtr object = MakeObject();
  for (const NodePtr& prop : node->children) {
    if (prop->num != 0) {  // computed
      TS_EVAL(key_value, prop->children[0], env);
      TS_EVAL(computed, prop->children[1], env);
      object->Set(Unbox(key_value).ToDisplayString(), std::move(computed));
    } else {
      TS_EVAL(v, prop->children[0], env);
      // Static keys are pre-interned by the resolver; "" interns to
      // kAtomEmpty so the fallback is also correct for empty-string keys.
      if (prop->atom != kAtomEmpty) {
        object->Set(prop->atom, std::move(v));
      } else {
        object->Set(prop->str, std::move(v));
      }
    }
  }
  return Completion::Normal(Value(object));
}

Result<Completion> Interpreter::EvalMemberRead(const NodePtr& node, const EnvPtr& env) {
  TS_EVAL(object, node->children[0], env);
  if (node->kind == NodeKind::kIndexExpr) {
    TS_EVAL(key, node->children[1], env);
    TURNSTILE_ASSIGN_OR_RETURN(v, GetProperty(object, Unbox(key).ToDisplayString()));
    return Completion::Normal(v);
  }
  if (node->num != 0 && object.IsNullish()) {  // optional chaining
    return Completion::Normal(Value::Undefined());
  }
  if (node->atom != kAtomEmpty) {
    TURNSTILE_ASSIGN_OR_RETURN(v, GetProperty(object, node->atom));
    return Completion::Normal(v);
  }
  TURNSTILE_ASSIGN_OR_RETURN(v, GetProperty(object, node->str));
  return Completion::Normal(v);
}

Result<Completion> Interpreter::EvalLogical(const NodePtr& node, const EnvPtr& env) {
  TS_EVAL(left, node->children[0], env);
  if (node->str == "&&") {
    if (!left.Truthy()) {
      return Completion::Normal(left);
    }
  } else if (node->str == "||") {
    if (left.Truthy()) {
      return Completion::Normal(left);
    }
  } else {  // ??
    if (!left.IsNullish()) {
      return Completion::Normal(left);
    }
  }
  TS_EVAL(right, node->children[1], env);
  return Completion::Normal(right);
}

Result<Completion> Interpreter::EvalUnary(const NodePtr& node, const EnvPtr& env) {
  if (node->str == "typeof") {
    // typeof tolerates undeclared identifiers; resolve the storage once
    // instead of a lookup followed by a full re-evaluation.
    if (node->children[0]->kind == NodeKind::kIdentifier) {
      Value* binding = ResolveIdentPtr(node->children[0], env);
      if (binding == nullptr) {
        return Completion::Normal(Value("undefined"));
      }
      return Completion::Normal(Value(Unbox(*binding).TypeName()));
    }
    TS_EVAL(v, node->children[0], env);
    return Completion::Normal(Value(Unbox(v).TypeName()));
  }
  if (node->str == "delete") {
    const NodePtr& target = node->children[0];
    if (target->kind == NodeKind::kMemberExpr || target->kind == NodeKind::kIndexExpr) {
      TS_EVAL(object, target->children[0], env);
      std::string key;
      if (target->kind == NodeKind::kMemberExpr) {
        key = target->str;
      } else {
        TS_EVAL(key_value, target->children[1], env);
        key = Unbox(key_value).ToDisplayString();
      }
      Value unboxed = Unbox(object);
      if (unboxed.IsObject()) {
        unboxed.AsObject()->Delete(key);
      }
      return Completion::Normal(Value(true));
    }
    return Completion::Normal(Value(false));
  }
  TS_EVAL(operand, node->children[0], env);
  Value v = Unbox(operand);
  if (node->str == "!") {
    return Completion::Normal(Value(!v.Truthy()));
  }
  if (node->str == "-") {
    return Completion::Normal(Value(-v.ToNumber()));
  }
  if (node->str == "+") {
    return Completion::Normal(Value(v.ToNumber()));
  }
  if (node->str == "~") {
    return Completion::Normal(Value(static_cast<double>(~NumberToInt(v.ToNumber()))));
  }
  return UnimplementedError("unary operator " + node->str);
}

Result<Completion> Interpreter::EvalUpdate(const NodePtr& node, const EnvPtr& env) {
  const NodePtr& target = node->children[0];
  if (target->kind != NodeKind::kIdentifier && target->kind != NodeKind::kMemberExpr &&
      target->kind != NodeKind::kIndexExpr) {
    return TypeError("invalid update target");
  }
  // Desugar: evaluate old, compute new = old ± 1, store, return per fixity.
  Value old_value;
  if (target->kind == NodeKind::kIdentifier) {
    Value* binding = ResolveIdentPtr(target, env);
    if (binding == nullptr) {
      return RuntimeError("update of undeclared variable " + target->str);
    }
    old_value = *binding;
    double n = Unbox(old_value).ToNumber();
    double updated = node->str == "++" ? n + 1 : n - 1;
    *binding = Value(updated);
    return Completion::Normal(Value(node->num != 0 ? updated : n));
  }
  TS_EVAL(object, target->children[0], env);
  std::string key;
  if (target->kind == NodeKind::kMemberExpr) {
    key = target->str;
  } else {
    TS_EVAL(key_value, target->children[1], env);
    key = Unbox(key_value).ToDisplayString();
  }
  TURNSTILE_ASSIGN_OR_RETURN(read, GetProperty(object, key));
  double n = Unbox(read).ToNumber();
  double updated = node->str == "++" ? n + 1 : n - 1;
  TURNSTILE_RETURN_IF_ERROR(SetProperty(object, key, Value(updated)));
  return Completion::Normal(Value(node->num != 0 ? updated : n));
}

Result<Completion> Interpreter::EvalSequence(const NodePtr& node, const EnvPtr& env) {
  Value last;
  for (const NodePtr& part : node->children) {
    TS_EVAL(v, part, env);
    last = std::move(v);
  }
  return Completion::Normal(last);
}

Result<Completion> Interpreter::AwaitValue(const Value& operand) {
  // Promises are pass-through (matching the paper's dataflow treatment):
  // a settled promise yields its value; anything else awaits to itself.
  Value v = Unbox(operand);
  if (v.IsObject() && v.AsObject()->Has("__promiseState")) {
    TURNSTILE_RETURN_IF_ERROR(DrainMicrotasks());
    const ObjectPtr& promise = v.AsObject();
    std::string state = promise->Get("__promiseState").ToDisplayString();
    if (state == "fulfilled") {
      return Completion::Normal(promise->Get("__promiseValue"));
    }
    if (state == "rejected") {
      return Completion::Throw(promise->Get("__promiseValue"));
    }
    return RuntimeError("await on a pending promise (unsupported)");
  }
  return Completion::Normal(operand);
}

// --- statement evaluation ----------------------------------------------------

Result<Completion> Interpreter::EvalBlock(const NodePtr& block, const EnvPtr& env) {
  // A resolved block that allocated no slots is transparent: the resolver did
  // not count it as a hop, so no Environment may be created for it. (It also
  // cannot contain function declarations, so skipping the hoist is safe.)
  if (block->slot == 0 && block->frame_size == 0) {
    for (const NodePtr& stmt : block->children) {
      TURNSTILE_ASSIGN_OR_RETURN(c, EvalStatement(stmt, env));
      if (c.IsAbrupt()) {
        return c;
      }
    }
    return Completion::Normal();
  }
  EnvPtr scope = Environment::MakeChild(env, block->frame_size);
  HoistFunctionDeclarations(block, scope);
  for (const NodePtr& stmt : block->children) {
    TURNSTILE_ASSIGN_OR_RETURN(c, EvalStatement(stmt, scope));
    if (c.IsAbrupt()) {
      return c;
    }
  }
  return Completion::Normal();
}

Result<Completion> Interpreter::EvalStatement(const NodePtr& node, const EnvPtr& env) {
  ++eval_count_;
  switch (node->kind) {
    case NodeKind::kProgram: {
      HoistFunctionDeclarations(node, env);
      for (const NodePtr& stmt : node->children) {
        TURNSTILE_ASSIGN_OR_RETURN(c, EvalStatement(stmt, env));
        if (c.IsAbrupt()) {
          return c;
        }
      }
      return Completion::Normal();
    }
    case NodeKind::kVarDecl:
      return EvalVarDecl(node, env);
    case NodeKind::kExprStmt:
      return EvalExpression(node->children[0], env);
    case NodeKind::kBlockStmt:
      return EvalBlock(node, env);
    case NodeKind::kIfStmt: {
      TS_EVAL(cond, node->children[0], env);
      if (cond.Truthy()) {
        return EvalStatement(node->children[1], env);
      }
      if (node->children.size() > 2) {
        return EvalStatement(node->children[2], env);
      }
      return Completion::Normal();
    }
    case NodeKind::kWhileStmt:
      return EvalWhile(node, env);
    case NodeKind::kForStmt:
      return EvalFor(node, env);
    case NodeKind::kForOfStmt:
      return EvalForOf(node, env);
    case NodeKind::kReturnStmt: {
      if (node->children.empty()) {
        return Completion::Return(Value::Undefined());
      }
      TS_EVAL(v, node->children[0], env);
      return Completion::Return(std::move(v));
    }
    case NodeKind::kBreakStmt:
      return Completion::Break();
    case NodeKind::kContinueStmt:
      return Completion::Continue();
    case NodeKind::kEmpty:
      return Completion::Normal();
    case NodeKind::kFunctionDecl: {
      Value closure = Value(MakeClosure(*node, env));
      if (node->slot >= 0) {
        env->slots[static_cast<size_t>(node->slot)] = std::move(closure);
      } else {
        env->Define(node->str, std::move(closure));
      }
      return Completion::Normal();
    }
    case NodeKind::kClassDecl:
      TURNSTILE_RETURN_IF_ERROR(DeclareClass(*node, env));
      return Completion::Normal();
    case NodeKind::kTryStmt:
      return EvalTry(node, env);
    case NodeKind::kThrowStmt: {
      TS_EVAL(v, node->children[0], env);
      return Completion::Throw(std::move(v));
    }
    default:
      // Expression in statement position.
      return EvalExpression(node, env);
  }
}

Result<Completion> Interpreter::EvalVarDecl(const NodePtr& node, const EnvPtr& env) {
  for (const NodePtr& declarator : node->children) {
    Value init;
    if (!declarator->children.empty()) {
      TS_EVAL(v, declarator->children[0], env);
      init = std::move(v);
      if (init.IsFunction() && init.AsFunction()->name.empty()) {
        init.AsFunction()->name = declarator->str;
      }
    }
    if (declarator->slot >= 0) {
      env->slots[static_cast<size_t>(declarator->slot)] = std::move(init);
    } else {
      env->Define(declarator->str, std::move(init));
    }
  }
  return Completion::Normal();
}

Result<Completion> Interpreter::EvalWhile(const NodePtr& node, const EnvPtr& env) {
  while (true) {
    TS_EVAL(cond, node->children[0], env);
    if (!cond.Truthy()) {
      return Completion::Normal();
    }
    TURNSTILE_ASSIGN_OR_RETURN(c, EvalStatement(node->children[1], env));
    if (c.kind == Completion::Kind::kBreak) {
      return Completion::Normal();
    }
    if (c.kind == Completion::Kind::kReturn || c.kind == Completion::Kind::kThrow) {
      return c;
    }
  }
}

Result<Completion> Interpreter::EvalFor(const NodePtr& node, const EnvPtr& env) {
  // Transparent for-header (no declarations): reuse the enclosing scope,
  // mirroring the resolver's hop counting.
  EnvPtr scope = node->slot == 0 && node->frame_size == 0
                     ? env
                     : Environment::MakeChild(env, node->frame_size);
  if (node->children[0]->kind != NodeKind::kEmpty) {
    TURNSTILE_ASSIGN_OR_RETURN(init, EvalStatement(node->children[0], scope));
    if (init.IsAbrupt()) {
      return init;
    }
  }
  while (true) {
    if (node->children[1]->kind != NodeKind::kEmpty) {
      TS_EVAL(cond, node->children[1], scope);
      if (!cond.Truthy()) {
        return Completion::Normal();
      }
    }
    TURNSTILE_ASSIGN_OR_RETURN(c, EvalStatement(node->children[3], scope));
    if (c.kind == Completion::Kind::kBreak) {
      return Completion::Normal();
    }
    if (c.kind == Completion::Kind::kReturn || c.kind == Completion::Kind::kThrow) {
      return c;
    }
    if (node->children[2]->kind != NodeKind::kEmpty) {
      TS_EVAL(update, node->children[2], scope);
      (void)update;
    }
  }
}

Result<Completion> Interpreter::EvalForOf(const NodePtr& node, const EnvPtr& env) {
  TS_EVAL(iterable_value, node->children[1], env);
  Value iterable = Unbox(iterable_value);
  std::vector<Value> items;
  if (iterable.IsArray()) {
    items = iterable.AsArray()->elements;  // copy: body may mutate
  } else if (iterable.IsString()) {
    for (char c : iterable.AsString()) {
      items.push_back(Value(std::string(1, c)));
    }
  } else {
    return TypeError("for-of target is not iterable");
  }
  const NodePtr& loop_var = node->children[0];
  for (const Value& item : items) {
    EnvPtr scope = Environment::MakeChild(env, node->frame_size);
    if (loop_var->slot >= 0) {
      scope->slots[static_cast<size_t>(loop_var->slot)] = item;
    } else {
      scope->Define(loop_var->str, item);
    }
    TURNSTILE_ASSIGN_OR_RETURN(c, EvalStatement(node->children[2], scope));
    if (c.kind == Completion::Kind::kBreak) {
      return Completion::Normal();
    }
    if (c.kind == Completion::Kind::kReturn || c.kind == Completion::Kind::kThrow) {
      return c;
    }
  }
  return Completion::Normal();
}

Result<Completion> Interpreter::EvalTry(const NodePtr& node, const EnvPtr& env) {
  TURNSTILE_ASSIGN_OR_RETURN(result, EvalBlock(node->children[0], env));
  Completion outcome = result;
  if (outcome.kind == Completion::Kind::kThrow &&
      node->children[2]->kind == NodeKind::kBlockStmt) {
    // The try node carries the catch frame's size (see resolve.h).
    EnvPtr catch_env = Environment::MakeChild(env, node->frame_size);
    const NodePtr& param = node->children[1];
    if (param->kind != NodeKind::kEmpty) {
      if (param->slot >= 0) {
        catch_env->slots[static_cast<size_t>(param->slot)] = outcome.value;
      } else {
        catch_env->Define(param->str, outcome.value);
      }
    }
    TURNSTILE_ASSIGN_OR_RETURN(catch_result, EvalBlock(node->children[2], catch_env));
    outcome = catch_result;
  }
  if (node->children.size() > 3 && node->children[3]->kind == NodeKind::kBlockStmt) {
    TURNSTILE_ASSIGN_OR_RETURN(finally_result, EvalBlock(node->children[3], env));
    if (finally_result.IsAbrupt()) {
      return finally_result;  // finally overrides
    }
  }
  return outcome;
}

// --- hoisting ----------------------------------------------------------------

// JS function-declaration hoisting: function declarations that are immediate
// statements of a scope are callable before their textual position.
void Interpreter::HoistFunctionDeclarations(const NodePtr& scope_node, const EnvPtr& env) {
  for (const NodePtr& stmt : scope_node->children) {
    if (stmt->kind == NodeKind::kFunctionDecl) {
      // EvalStatement re-defines the same closure at the declaration's
      // textual position; both definitions share this scope.
      auto result = EvalStatement(stmt, env);
      (void)result;
    }
  }
}

// --- CallAsCompletion --------------------------------------------------------

static Result<Completion> CallAsCompletion(Interpreter& interp, const FunctionPtr& fn,
                                           const Value& this_value, std::vector<Value> args) {
  // CallFunction collapses a MiniScript `throw` into a Status plus a pending
  // thrown value; re-raise it here as a throw completion so an enclosing
  // MiniScript try/catch observes the original value.
  Result<Value> result = interp.CallFunction(fn, this_value, std::move(args));
  if (result.ok()) {
    return Completion::Normal(std::move(result).value());
  }
  Value thrown;
  if (interp.ConsumePendingThrow(&thrown)) {
    return Completion::Throw(std::move(thrown));
  }
  return result.status();
}

#undef TS_EVAL

}  // namespace turnstile
