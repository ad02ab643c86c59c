// The MiniScript runtime: a virtual-time event loop, simulated I/O modules,
// and the runtime helpers the bytecode VM (src/vm) executes against. A
// tree-walking evaluator stays here as the reference oracle, reachable only
// through set_exec_tier(ExecTier::kTreeWalk).
//
// The interpreter is the "runtime platform" substrate of the reproduction: it
// plays the role Node.js plays in the paper. Crucially it contains no IFC
// logic — the DIFT tracker (src/dift) is an ordinary native module registered
// into the global scope, mirroring the paper's platform-independence claim.
#ifndef TURNSTILE_SRC_INTERP_INTERP_H_
#define TURNSTILE_SRC_INTERP_INTERP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/interp/environment.h"
#include "src/interp/heap.h"
#include "src/interp/value.h"
#include "src/lang/ast.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/event_log.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace turnstile {

class RuntimeContext;  // src/runtime/context.h — the per-instance environment
class DiftHook;        // src/interp/dift_hook.h — fused-ISA monitor entry points

namespace vm {
class Vm;  // src/vm/vm.h — the bytecode dispatch loop
}  // namespace vm

// One observable side effect produced through a simulated I/O module (the
// runtime equivalent of a taint sink).
struct IoRecord {
  double time = 0.0;       // virtual seconds
  std::string channel;     // "fs", "net", "http", "mqtt", "smtp", "sqlite", "console"
  std::string op;          // "write", "sendMail", "publish", ...
  std::string detail;      // path / host / topic / recipient
  std::string payload;     // rendered written data
};

// The simulated outside world shared by all I/O modules.
struct IoWorld {
  std::unordered_map<std::string, std::string> files;  // virtual filesystem
  std::vector<IoRecord> records;                        // every sink write
  // Emitter objects created by modules, keyed by tag ("net.socket", ...), so
  // harnesses can push events into a running program.
  std::unordered_map<std::string, std::vector<ObjectPtr>> emitters;

  void Record(double time, std::string channel, std::string op, std::string detail,
              std::string payload) {
    records.push_back({time, std::move(channel), std::move(op), std::move(detail),
                       std::move(payload)});
  }
};

// Execution tiers. Every interpreter starts on the bytecode tier, which
// compiles resolved function bodies to register bytecode (src/vm) with
// `__dift.*` calls fused onto the labelled opcodes. The other two are
// differential oracles, reachable only through set_exec_tier(): the
// bytecode-lowered tier keeps every `__dift.*` hook as an ordinary call (the
// oracle for the fused ISA), and the tree-walker is the reference oracle for
// the VM as a whole.
enum class ExecTier { kBytecode, kTreeWalk, kBytecodeLowered };

// Binary operators pre-decoded from their source spelling. Shared by the
// tree-walker (which decodes once per evaluation) and the bytecode compiler
// (which decodes once per compile and bakes the enum into the instruction).
enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kPow,
  kLooseEq, kLooseNe, kStrictEq, kStrictNe,
  kLt, kGt, kLe, kGe,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kIn,
  kInvalid,
};

// kInvalid for unknown spellings.
BinaryOp BinaryOpFromString(const std::string& op);

// Number -> integer conversion for the bitwise operators of both evaluators:
// truncates toward zero, and maps NaN, ±Inf and values outside the int64
// range to 0 (where a plain cast would be undefined behaviour).
inline int64_t NumberToInt(double n) {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63, exact in a double
  return n >= -kLimit && n < kLimit ? static_cast<int64_t>(n) : 0;
}

// Statement/expression completion record (JS-style abrupt completions).
struct Completion {
  enum class Kind { kNormal, kReturn, kBreak, kContinue, kThrow };
  Kind kind = Kind::kNormal;
  Value value;

  static Completion Normal(Value v = Value::Undefined()) {
    return {Kind::kNormal, std::move(v)};
  }
  static Completion Return(Value v) { return {Kind::kReturn, std::move(v)}; }
  static Completion Break() { return {Kind::kBreak, Value::Undefined()}; }
  static Completion Continue() { return {Kind::kContinue, Value::Undefined()}; }
  static Completion Throw(Value v) { return {Kind::kThrow, std::move(v)}; }

  bool IsAbrupt() const { return kind != Kind::kNormal; }
};

class Interpreter {
 public:
  // Binds to the process-default RuntimeContext (today's behavior for tools,
  // benches and single-instance tests).
  Interpreter();
  // Binds to an explicit context: all observability handles (trace recorder,
  // profiler, metrics) resolve from it. `context` must outlive the
  // interpreter and every component constructed on top of it.
  explicit Interpreter(RuntimeContext& context);
  ~Interpreter();
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  RuntimeContext& context() const { return *context_; }

  // The registry of everything this interpreter allocated. The constructor
  // and the entry points below (RunProgram, RunEventLoop, CallFunction,
  // RequireModule) make it current; a host that builds values for this
  // interpreter elsewhere opens its own Heap::Scope or calls Adopt().
  Heap& heap() { return heap_; }

  // Evaluates the top level of a program in the global scope. An uncaught
  // MiniScript exception or a host error is returned as a Status.
  Status RunProgram(const Program& program);

  // Runs queued macrotasks/microtasks until the queues drain or `max_tasks`
  // macrotasks have executed.
  Status RunEventLoop(int max_tasks = 100000);

  // Calls a MiniScript or native function from C++.
  Result<Value> CallFunction(const FunctionPtr& fn, const Value& this_value,
                             std::vector<Value> args);

  // --- event / task plumbing -------------------------------------------------

  // Registers `listener` for `event` on `emitter` (the `.on` mechanism).
  void AddListener(const ObjectPtr& emitter, const std::string& event, FunctionPtr listener);
  // Enqueues a macrotask firing all listeners of `event` at virtual `delay_s`
  // seconds from now.
  void EmitEvent(const ObjectPtr& emitter, const std::string& event, std::vector<Value> args,
                 double delay_s = 0.0);
  bool HasListener(const ObjectPtr& emitter, const std::string& event) const;
  // Schedules a bare callback macrotask.
  void ScheduleTask(FunctionPtr fn, std::vector<Value> args, double delay_s);
  // Schedules a microtask (runs before the next macrotask).
  void ScheduleMicrotask(FunctionPtr fn, std::vector<Value> args);

  double VirtualNow() const { return virtual_time_; }
  void AdvanceVirtualTime(double seconds) { virtual_time_ += seconds; }

  // --- environment access ----------------------------------------------------

  EnvPtr global_env() { return global_env_; }
  void DefineGlobal(const std::string& name, Value value) {
    global_env_->Define(name, std::move(value));
  }
  IoWorld& io_world() { return io_world_; }
  Rng& rng() { return rng_; }

  // Registers a module for `require(name)`. The factory runs once (cached).
  void RegisterModule(const std::string& name,
                      std::function<Value(Interpreter&)> factory);
  Result<Value> RequireModule(const std::string& name);

  // Property access helpers shared with native modules. The Atom overloads are
  // the fast path for statically-known keys (resolved member expressions and
  // object-literal keys); they avoid re-hashing the key string on objects.
  Result<Value> GetProperty(const Value& object, const std::string& key);
  Result<Value> GetProperty(const Value& object, Atom key);
  Status SetProperty(const Value& object, const std::string& key, Value value);
  Status SetProperty(const Value& object, Atom key, Value value);

  // Creates a MiniScript error object ({ message }).
  Value MakeError(const std::string& message);

  // Applies a MiniScript binary operator to two already-evaluated values.
  // Exposed for the DIFT tracker's binaryOp API.
  Result<Completion> EvalBinary(const std::string& op, const Value& left, const Value& right);

  // Pre-decoded variant; the hot path for both tiers.
  Result<Completion> EvalBinaryOp(BinaryOp op, const Value& left, const Value& right);

  // --- tier-shared runtime helpers (used by the bytecode VM) ----------------

  // Unboxes `fn_value`, checks callability (TypeError names `callee_name`)
  // and calls it, keeping MiniScript `throw`s as throw completions.
  Result<Completion> InvokeValue(const Value& fn_value, const Value& this_value,
                                 std::vector<Value> args, const std::string& callee_name);
  // `new callee(...args)`: class construction or plain-function construction
  // with the returned-object-wins rule.
  Result<Completion> ConstructValue(const Value& callee, std::vector<Value> args);
  // `await operand`: settled promises yield their value (draining microtasks
  // first); anything else awaits to itself.
  Result<Completion> AwaitValue(const Value& operand);
  // Creates a closure from a function-like node capturing `env`.
  FunctionPtr MakeClosure(const Node& node, const EnvPtr& env);

  // Execution-tier selection (see ExecTier). Affects RunProgram and calls to
  // MiniScript closures.
  ExecTier exec_tier() const { return exec_tier_; }
  void set_exec_tier(ExecTier tier) { exec_tier_ = tier; }

  // Fused-ISA monitor hook (see src/interp/dift_hook.h). Registered by
  // DiftTracker::Install(); null means labelled opcodes take their slow path
  // (the ordinary `__dift` bridge-object call), which is also how programs
  // without a tracker see the same undeclared-variable errors as the oracle
  // tiers. The hook must outlive every chunk execution (the tracker
  // deregisters itself on destruction).
  DiftHook* dift_hook() const { return dift_hook_; }
  void set_dift_hook(DiftHook* hook) { dift_hook_ = hook; }

  // Throws a host-level error carrying a MiniScript-visible message.
  static Status TypeError(const std::string& message) {
    return RuntimeError("TypeError: " + message);
  }
  static Status RangeError(const std::string& message) {
    return RuntimeError("RangeError: " + message);
  }

  // Total number of statements/expressions evaluated (a deterministic,
  // platform-independent work metric used by tests).
  uint64_t eval_count() const { return eval_count_; }

  // Exception plumbing: when CallFunction fails because the callee threw a
  // MiniScript value, the thrown value can be retrieved exactly once. Used to
  // re-raise the original value across native call boundaries.
  bool ConsumePendingThrow(Value* out) {
    if (!has_pending_throw_) {
      return false;
    }
    *out = std::move(pending_throw_);
    pending_throw_ = Value::Undefined();
    has_pending_throw_ = false;
    return true;
  }
  void SetPendingThrow(Value v) {
    pending_throw_ = std::move(v);
    has_pending_throw_ = true;
  }

 private:
  friend class vm::Vm;  // the bytecode dispatch loop shares the runtime internals

  struct Task {
    double time = 0.0;
    uint64_t seq = 0;
    obs::TraceContext trace;  // trace the task was enqueued under (id 0 = none)
    FunctionPtr fn;          // direct callback task …
    ObjectPtr emitter;       // … or an event task: listeners are resolved at
    std::string event;       //     fire time (so late .on() registration works)
    std::vector<Value> args;
  };

  Status ExecuteTask(const Task& task);

  // Binds the class declared by `node` (a kClassDecl) in `env`; TypeError when
  // the superclass is not a class. Shared by the VM's kClass instruction and
  // the tree-walker.
  Status DeclareClass(const Node& node, const EnvPtr& env);

  // The tree-walking reference oracle (ExecTier::kTreeWalk only).
  Result<Completion> EvalStatement(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalExpression(const NodePtr& node, const EnvPtr& env);
  void HoistFunctionDeclarations(const NodePtr& scope_node, const EnvPtr& env);
  Result<Completion> EvalBlock(const NodePtr& block, const EnvPtr& env);
  Result<Completion> EvalCall(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalNew(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalAssignment(const NodePtr& node, const EnvPtr& env);
  // Cases of the two switches kept out of line so that one tree-walked call
  // level stays small on the native stack (see interpreter.cc).
  Result<Completion> EvalArrayLiteral(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalObjectLiteral(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalMemberRead(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalLogical(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalUnary(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalUpdate(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalSequence(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalVarDecl(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalWhile(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalFor(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalForOf(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalTry(const NodePtr& node, const EnvPtr& env);
  Result<Completion> EvalArgs(const NodePtr& call, size_t first_index, const EnvPtr& env,
                              std::vector<Value>* out);
  Status DrainMicrotasks(int max_tasks = 100000);

  // Locates the storage for an identifier use, honoring the resolver's
  // annotations: slot-indexed frame access for resolved locals, a direct
  // global-map probe for kHopsGlobal, and the dynamic name-chain walk for
  // unresolved trees. Returns nullptr for unbound names.
  Value* ResolveIdentPtr(const NodePtr& node, const EnvPtr& env);

  void InstallBuiltins();   // builtins.cc
  void InstallIoModules();  // modules.cc

  // First member, so it is destroyed last: every other member's references
  // are released before it detaches the cells that outlived teardown.
  Heap heap_;
  EnvPtr global_env_;
  IoWorld io_world_;
  Rng rng_{0x7457eeull};

  // The per-instance environment everything below resolves handles from.
  RuntimeContext* context_ = nullptr;

  // Observability handles, resolved once from context_ (hot paths must not
  // hash names or call through TU boundaries per task).
  obs::EventLog* event_log_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Counter* metric_macrotasks_ = nullptr;
  obs::Counter* metric_microtasks_ = nullptr;
  obs::Counter* metric_listeners_fired_ = nullptr;
  obs::Histogram* metric_turn_seconds_ = nullptr;
  // Bytecode-tier counters, cached here so the VM flush path (vm_execute.inc,
  // a friend) bills ops into this instance's registry.
  obs::Counter* metric_vm_ops_ = nullptr;
  obs::Histogram* metric_vm_activation_ops_ = nullptr;

  std::map<std::pair<double, uint64_t>, Task> macrotasks_;
  std::deque<Task> microtasks_;
  uint64_t task_seq_ = 0;
  double virtual_time_ = 0.0;
  uint64_t eval_count_ = 0;
  int call_depth_ = 0;
  ExecTier exec_tier_ = ExecTier::kBytecode;
  DiftHook* dift_hook_ = nullptr;
  Value pending_throw_;
  bool has_pending_throw_ = false;

  std::unordered_map<const Object*, std::unordered_map<std::string, std::vector<FunctionPtr>>>
      listeners_;
  std::unordered_map<std::string, std::function<Value(Interpreter&)>> module_factories_;
  std::unordered_map<std::string, Value> module_cache_;
};

// Creates a promise object already fulfilled with `value` (implemented in
// builtins.cc; used by simulated async I/O modules).
Value MakeResolvedPromise(Interpreter& interp, Value value);

// Creates an event-emitter object whose `.on(event, cb)` registers listeners
// with the interpreter (implemented in modules.cc).
ObjectPtr MakeEmitterObject(Interpreter& interp, const std::string& tag);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_INTERP_INTERP_H_
