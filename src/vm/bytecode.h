// Register-bytecode definitions for the compiled execution tier.
//
// A Chunk is the compiled form of one function body, program top level, or
// try/catch/finally block. Instructions address a per-activation register
// file. Its low registers hold the chunk's register-resident locals: every
// resolved local whose declaration and uses all sit in this chunk (no nested
// function and no try/catch/finally sub-chunk names it) lives in a register
// of its own, and uncaptured parameters (and a catch parameter) are copied
// there from their frame slot once, in the prologue. Registers above those
// hold expression temporaries. Every other variable lives in the
// slot-indexed Environment frames of src/interp/environment.h, addressed by
// the (hops, slot) coordinates the resolver annotated onto the AST. Frames
// keep their resolver-assigned size and are pushed exactly as before; the
// slots of register-resident locals just stay undefined. The tree-walking
// reference oracle uses the same frames, so a closure created by either
// evaluator can capture an environment built by the other.
//
// Operand conventions:
//   - registers are indices into the activation's register file
//   - value operands (`v` below) are a register when >= 0, or the number
//     constant constants[~v] when negative, so a literal operand needs no
//     kLoadConst of its own
//   - jump targets always live in operand `a` (the patching invariant)
//   - `atom` operands are interned atoms (src/lang/atoms.h)
//   - `name`/`msg` operands index Chunk::names (keys and precomputed
//     diagnostic strings); `node` operands index Chunk::nodes
#ifndef TURNSTILE_SRC_VM_BYTECODE_H_
#define TURNSTILE_SRC_VM_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/value.h"
#include "src/lang/ast.h"

namespace turnstile {
namespace vm {

enum class Op : uint8_t {
  // --- moves and constants ---------------------------------------------------
  kLoadConst,        // r[a] = constants[b]
  kMove,             // r[a] = r[b]

  // --- variable access (shared Environment frames) ---------------------------
  kLoadSlot,         // r[a] = frame(b hops up).slots[c]
  kStoreSlot,        // frame(a hops up).slots[b] = r[c]
  kLoadGlobal,       // r[a] = global.bindings[atom b]; unbound -> RuntimeError names[c]
  kLoadGlobalSoft,   // r[a] = global.bindings[atom b], undefined when unbound (typeof)
  kStoreGlobal,      // global.bindings[atom a] = r[b] (defines when unbound)
  kLoadDyn,          // r[a] = name-chain lookup of atom b; unbound -> RuntimeError names[c]
  kLoadDynSoft,      // r[a] = name-chain lookup of atom b, undefined when unbound
  kStoreDyn,         // chain-assign atom a = r[b]; unbound -> implicit global define
  kDefineCur,        // cur_env.Define(atom a, r[b])  (unresolved declarations)
  kLoadThisDyn,      // r[a] = name-chain lookup of `this` (atom b), undefined when unbound
  kSetFnName,        // if r[a] is an unnamed function, set its name to names[b]

  // --- operators -------------------------------------------------------------
  kBinary,           // r[a] = EvalBinaryOp(BinaryOp b, v[c], v[d])
  kAddSlot,          // `+=` on a slot local: r[a] = frame(b hops up).slots[c] =
                     //   r[d] + r[e], where r[d] holds the slot's value loaded
                     //   before r[e] was evaluated. Appends in place when the
                     //   slot and r[d] are the sole owners of one plain string.
                     //   Invariant: a, d and e are three distinct registers.
  kAddReg,           // `+=` on a register local: r[a] = r[a] + v[b]. Appends in
                     //   place when r[a] is the sole owner of a plain string.
  kIncLocal,         // `x++`/`x--` whose value is unused, x a register local:
                     //   r[a] = ToNumber(Unbox(r[a])) + b   (b = +1 or -1)
  kIncSlot,          // the same on a slot local: frame(a hops up).slots[b] =
                     //   ToNumber(Unbox(frame(a hops up).slots[b])) + c
  kUnary,            // r[a] = UnaryOp b applied to Unbox(r[c])
  kTypeof,           // r[a] = typeof Unbox(r[b])

  // --- control flow ----------------------------------------------------------
  kJump,             // pc = a
  kJumpIfFalse,      // if (!r[b].Truthy()) pc = a
  kJumpIfTrue,       // if (r[b].Truthy()) pc = a
  kJumpIfNullish,    // if (r[b].IsNullish()) pc = a
  kJumpIfNotNullish, // if (!r[b].IsNullish()) pc = a
  kJumpUnless,       // compare-and-jump: if !EvalBinaryOp(BinaryOp b, v[c],
                     //   v[d]).Truthy() pc = a  (b is <, >, <=, >=, === or !==)

  // --- property access -------------------------------------------------------
  kGetProp,          // r[a] = GetProperty(r[b], atom c)
  kGetPropName,      // r[a] = GetProperty(r[b], names[c])
  kGetIndex,         // r[a] = GetProperty(r[b], Unbox(r[c]).ToDisplayString())
  kSetProp,          // SetProperty(r[a], atom b, r[c])
  kSetPropName,      // SetProperty(r[a], names[b], r[c])
  kSetIndex,         // SetProperty(r[a], Unbox(r[b]).ToDisplayString(), r[c])
  kDeleteProp,       // if Unbox(r[a]) is an object, delete key names[b]
  kDeleteIndex,      // if Unbox(r[a]) is an object, delete key Unbox(r[b]).ToDisplayString()

  // --- object / array construction ------------------------------------------
  kObjNew,           // r[a] = {}
  kObjSetAtom,       // r[a].AsObject()->Set(atom b, r[c])   (static literal key)
  kObjSetName,       // r[a].AsObject()->Set(names[b], r[c]) (empty-atom fallback)
  kObjSetComputed,   // r[a].AsObject()->Set(Unbox(r[b]).ToDisplayString(), r[c])
  kArray,            // r[a] = [r[b] .. r[b+c])
  kArrayV,           // r[a] = array from the popped argument buffer (spread literals)

  // --- calls -----------------------------------------------------------------
  // Spread-free calls take their arguments from a contiguous register window;
  // calls with spread build a variable-length argument buffer first.
  kArgStart,         // push a fresh argument buffer
  kArgPush,          // buffer.push(r[a])
  kArgSpread,        // append elements of Unbox(r[a]); b: 0 = call ("argument"
                     //   in the TypeError), 1 = array literal ("element")
  kCall,             // r[a] = call r[b] (this = r[c], or undefined when c < 0)
                     //   with args r[d] .. r[d+e); callee name = names[f]
  kCallV,            // like kCall but args = popped buffer
  kNew,              // r[a] = construct r[b] with args r[c] .. r[c+d)
  kNewV,             // like kNew but args = popped buffer

  // --- closures and scopes ---------------------------------------------------
  kClosure,          // r[a] = MakeClosure(nodes[b], cur_env)
  kEnvPush,          // cur_env = Environment::MakeChild(cur_env, frame_size a)
  kEnvPop,           // cur_env = cur_env.parent
  kEnvPopN,          // pop a environments (break/continue unwinding)

  // --- iteration (for-of) ----------------------------------------------------
  kIterNew,          // push an iteration frame over Unbox(r[b]); TypeError when
                     //   not an array or string (arrays are copied, matching
                     //   the tree-walker's mutation-safe snapshot)
  kIterNext,         // r[b] = next item; when exhausted pop the frame and pc = a
  kIterPop,          // pop the top iteration frame (break paths)

  // --- fused DIFT (labelled opcode variants; see DESIGN.md §13) --------------
  // The fused compiler flavor lowers recognized `__dift.*` call shapes onto
  // these opcodes. When a DiftHook is registered (DiftTracker::Install) the
  // arms call straight into the tracker — no `__dift` global load, property
  // fetch, argument Values, or native-call frame. Without a hook they fall
  // back to the exact call-lowered sequence, so programs that run fused
  // chunks tracker-free behave identically to the oracle tiers.
  kDiftGuard,        // hook installed: no-op. Otherwise materialize the slow
                     //   path's callee pair: r[a+1] = global.bindings[atom d]
                     //   (unbound -> RuntimeError names[c]), r[a] =
                     //   GetProperty(r[a+1], atom b). Emitted before operand
                     //   evaluation, mirroring the lowered evaluation order.
  kBinaryLabelled,   // r[a] = hook->FusedBinary(names[f], BinaryOp b, v[c], v[d]);
                     //   slow path: r[a] = InvokeValue(r[e], r[e+1],
                     //   [names[f], v[c], v[d]], "binaryOp")
  kCheckSink,        // r[a] = hook->FusedCheck(r[b], r[c]); slow path:
                     //   r[a] = InvokeValue(r[d], r[d+1], [r[b], r[c]], "check")
  kCallLabelled,     // r[a] = hook->FusedInvoke(r[b], names[f], args r[c]..r[c+d));
                     //   slow path: r[a] = InvokeValue(r[e], r[e+1],
                     //   [r[b], names[f], [args...]], "invoke")
  kGetPropLabelled,  // as kGetProp, with an inline hit path for plain (non-box)
                     //   object own properties
  kSetPropLabelled,  // as kSetProp, with an inline store path for plain
                     //   trap-free objects (still bumps the heap write epoch)

  // --- exceptions, classes, static errors -----------------------------------
  kTry,              // run the try statement nodes[a] (Vm::RunTry): each block
                     //   is a sub-chunk run in cur_env (catch: in a fresh
                     //   catch frame); on break: pop c envs (+ the top
                     //   iteration frame when d != 0) and pc = b; on continue:
                     //   pop f envs and pc = e; b/e < 0 propagate the
                     //   completion out of the chunk
  kClass,            // Interpreter::DeclareClass(nodes[a], cur_env)
  kRaise,            // return Status(StatusCode a, names[b])  (statically
                     //   known runtime errors, e.g. `++1`)

  // --- completions -----------------------------------------------------------
  kAwait,            // r[a] = await r[b]
  kThrow,            // return Throw(r[a])
  kReturn,           // return Return(r[a])
  kHalt,             // return Normal(undefined)  (block body fell off the end)
  kHaltValue,        // return Normal(r[a])       (expression-body arrows)
  kComplete,         // return Break (a = 0) / Continue (a = 1) with no target
                     //   loop in this chunk (top-level or function-body break)
};

// Operand of Op::kUnary.
enum class UnaryOp : uint8_t { kNot, kNeg, kPlus, kBitNot };

struct Insn {
  Op op;
  int32_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
};

// One compiled function body / program top level.
struct Chunk {
  std::vector<Insn> code;
  std::vector<Value> constants;
  // Closure, try and class nodes. Every one sits in the subtree of the node
  // the chunk is cached on, which keeps it alive, so the chunk does not own
  // them: an owning pointer would form a node -> chunk -> node cycle when an
  // expression-bodied arrow returns a function (`() => () => x`).
  std::vector<const Node*> nodes;
  std::vector<std::string> names;   // property keys and precompiled diagnostics
  uint32_t num_regs = 0;            // register-file size

  // Source node of each instruction, parallel to `code` (diagnostics only).
  std::vector<const Node*> debug_nodes;

  // 1-based source line of each instruction, parallel to `code` (0 = no
  // source position). Derived from debug_nodes at Finish(); drives the
  // profiler's per-line attribution clock in the dispatch loop.
  std::vector<int32_t> lines;
};

using ChunkPtr = std::shared_ptr<const Chunk>;

// Human-readable opcode name, e.g. "LoadSlot".
const char* OpName(Op op);

// Renders a chunk one line per instruction: index, opcode, raw operands, and
// a trailing comment resolving atom/name/constant operands plus the source
// line (disasm.cc; surfaced through `profile_app --disasm`).
std::string DisassembleChunk(const Chunk& chunk);

}  // namespace vm
}  // namespace turnstile

#endif  // TURNSTILE_SRC_VM_BYTECODE_H_
