#include "src/vm/compiler.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/interp/interp.h"
#include "src/obs/metrics.h"

namespace turnstile {
namespace vm {

namespace {

// Register residency: which of a chunk's locals live in registers.
//
// A local is a (frame, slot) pair, the frame named by the node that owns it
// (nullptr for the chunk's entry frame). It is register-resident when the
// chunk owns its frame — the chunk pushes it, or it is the entry frame and
// the slot is one of `entry_decls` — and no code outside the chunk names it:
// no nested function or class, and no try/catch/finally sub-chunk. The walk
// pushes frames exactly where the compiler emits kEnvPush (and where nested
// functions and Vm::RunTry create theirs), so a use's hop count picks out
// its frame the way it does at run time.
//
// A resident local whose frame is entered again within one activation (a
// block in a loop body) keeps the previous iteration's value in its
// register, where a fresh frame would read undefined. The compiler clears it
// on re-entry unless the local's first access in walk order is a store that
// runs on every entry before any read: a declarator that is a direct
// statement of the frame's block or for-header, a hoisted function
// declaration, or the for-of variable.
class LocalAnalysis {
 public:
  struct Locals {
    int count = 0;                                   // registers r0 .. r(count-1)
    std::unordered_map<const Node*, int> regs;       // use/declaration node -> register
    std::unordered_map<const Node*, std::vector<int>> resets;  // frame owner -> registers
    std::vector<std::pair<int32_t, int>> entry_copies;         // (entry slot, register)
  };

  // `chunk_root` is a kProgram root or a function/try/catch/finally body.
  LocalAnalysis(const NodePtr& chunk_root, std::span<const NodePtr> entry_decls) {
    for (const NodePtr& decl : entry_decls) {
      if (decl->slot >= 0) {
        entry_slots_.push_back(decl->slot);
      }
    }
    frames_.push_back(Frame{nullptr, !entry_slots_.empty()});
    owned_frames_ = entry_slots_.empty() ? 0 : 1;
    if (chunk_root->kind == NodeKind::kProgram) {
      for (const NodePtr& stmt : chunk_root->children) {
        Stmt(stmt);
      }
    } else if (chunk_root->kind == NodeKind::kBlockStmt) {
      Stmt(chunk_root);
    } else {
      Expr(chunk_root);
    }
  }

  Locals Assign() const {
    Locals out;
    for (const Local& local : locals_) {
      if (local.pinned) {
        continue;
      }
      int reg = out.count++;
      for (const Node* node : local.nodes) {
        out.regs.emplace(node, reg);
      }
      if (local.owner == nullptr) {
        out.entry_copies.emplace_back(local.slot, reg);
      } else if (!local.stored_first) {
        out.resets[local.owner].push_back(reg);
      }
    }
    return out;
  }

 private:
  struct Frame {
    const Node* owner;
    bool owned;
  };
  struct Local {
    const Node* owner;
    int32_t slot;
    bool pinned = false;        // named from outside the chunk: stays in its slot
    bool stored_first = false;  // first access is a store on every frame entry
    std::vector<const Node*> nodes;
  };
  enum class Access { kUse, kFirstStore, kPin };

  void Note(const Node* node, int32_t hops, int32_t slot, Access access) {
    int index = static_cast<int>(frames_.size()) - 1 - hops;
    if (slot < 0 || index < 0 || !frames_[static_cast<size_t>(index)].owned) {
      return;
    }
    const Node* owner = frames_[static_cast<size_t>(index)].owner;
    if (index == 0 &&
        std::find(entry_slots_.begin(), entry_slots_.end(), slot) == entry_slots_.end()) {
      return;  // `this` or the self binding: the entry frame keeps them
    }
    auto [it, inserted] = local_index_.try_emplace({owner, slot}, locals_.size());
    if (inserted) {
      locals_.push_back(Local{owner, slot, false, false, {}});
    }
    Local& local = locals_[it->second];
    if (foreign_ > 0 || access == Access::kPin) {
      local.pinned = true;
      return;
    }
    if (local.nodes.empty()) {
      local.stored_first = owner == nullptr || access == Access::kFirstStore;
    }
    local.nodes.push_back(node);
  }

  void Push(const Node* owner) {
    bool owned = foreign_ == 0;
    frames_.push_back(Frame{owner, owned});
    owned_frames_ += owned ? 1 : 0;
  }

  void Pop() {
    owned_frames_ -= frames_.back().owned ? 1 : 0;
    frames_.pop_back();
  }

  // Code that runs outside this chunk (a nested function, class or try
  // sub-chunk): every owned local it names is pinned to its slot. With no
  // owned frame in scope there is nothing it could pin.
  template <typename Fn>
  void Foreign(Fn walk) {
    if (owned_frames_ == 0) {
      return;
    }
    ++foreign_;
    const Node* saved = direct_;
    direct_ = nullptr;
    walk();
    direct_ = saved;
    --foreign_;
  }

  void Function(const NodePtr& fn) {
    Foreign([&] {
      Push(fn.get());  // the call frame
      const NodePtr& body = fn->children[1];
      if (body->kind == NodeKind::kBlockStmt) {
        Stmt(body);
      } else {
        Expr(body);
      }
      Pop();
    });
  }

  void Block(const NodePtr& block) {
    bool transparent = block->slot == 0 && block->frame_size == 0;
    const Node* saved = direct_;
    if (!transparent) {
      Push(block.get());
      for (const NodePtr& stmt : block->children) {
        if (stmt->kind == NodeKind::kFunctionDecl) {
          Note(stmt.get(), 0, stmt->slot, Access::kFirstStore);  // hoisted
        }
      }
    }
    for (const NodePtr& stmt : block->children) {
      direct_ = transparent ? nullptr : stmt.get();
      Stmt(stmt);
    }
    direct_ = saved;
    if (!transparent) {
      Pop();
    }
  }

  void Stmt(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kVarDecl: {
        Access store = node.get() == direct_ ? Access::kFirstStore : Access::kUse;
        for (const NodePtr& declarator : node->children) {
          if (!declarator->children.empty()) {
            Expr(declarator->children[0]);
          }
          Note(declarator.get(), 0, declarator->slot, store);
        }
        return;
      }
      case NodeKind::kFunctionDecl:
        Note(node.get(), 0, node->slot, Access::kUse);
        Function(node);
        return;
      case NodeKind::kClassDecl:
        // Interpreter::DeclareClass reads the superclass and writes the class
        // binding through the frame, so both stay in their slots.
        Note(node.get(), 0, node->slot, Access::kPin);
        if (node->children[0]->kind != NodeKind::kEmpty) {
          const NodePtr& super = node->children[0];
          Note(super.get(), super->hops, super->slot, Access::kPin);
        }
        for (size_t i = 1; i < node->children.size(); ++i) {
          Function(node->children[i]);
        }
        return;
      case NodeKind::kBlockStmt:
        Block(node);
        return;
      case NodeKind::kIfStmt:
        Expr(node->children[0]);
        Stmt(node->children[1]);
        if (node->children.size() > 2) {
          Stmt(node->children[2]);
        }
        return;
      case NodeKind::kWhileStmt:
        Expr(node->children[0]);
        Stmt(node->children[1]);
        return;
      case NodeKind::kForStmt: {
        bool header = !(node->slot == 0 && node->frame_size == 0);
        const Node* saved = direct_;
        if (header) {
          Push(node.get());
        }
        direct_ = node->children[0].get();  // the init runs first on every entry
        if (node->children[0]->kind != NodeKind::kEmpty) {
          Stmt(node->children[0]);
        }
        direct_ = nullptr;
        if (node->children[1]->kind != NodeKind::kEmpty) {
          Expr(node->children[1]);
        }
        Stmt(node->children[3]);
        if (node->children[2]->kind != NodeKind::kEmpty) {
          Expr(node->children[2]);
        }
        direct_ = saved;
        if (header) {
          Pop();
        }
        return;
      }
      case NodeKind::kForOfStmt: {
        Expr(node->children[1]);
        Push(node.get());
        const NodePtr& loop_var = node->children[0];
        Note(loop_var.get(), 0, loop_var->slot, Access::kFirstStore);
        const Node* saved = direct_;
        direct_ = nullptr;
        Stmt(node->children[2]);
        direct_ = saved;
        Pop();
        return;
      }
      case NodeKind::kReturnStmt:
      case NodeKind::kThrowStmt:
      case NodeKind::kExprStmt:
        if (!node->children.empty()) {
          Expr(node->children[0]);
        }
        return;
      case NodeKind::kTryStmt:
        Foreign([&] {
          Stmt(node->children[0]);
          if (node->children[2]->kind == NodeKind::kBlockStmt) {
            Push(node.get());  // the catch frame
            Stmt(node->children[2]);
            Pop();
          }
          if (node->children.size() > 3 && node->children[3]->kind == NodeKind::kBlockStmt) {
            Stmt(node->children[3]);
          }
        });
        return;
      case NodeKind::kBreakStmt:
      case NodeKind::kContinueStmt:
      case NodeKind::kEmpty:
        return;
      default:
        Expr(node);
        return;
    }
  }

  void Expr(const NodePtr& node) {
    if (node->kind == NodeKind::kIdentifier) {
      if (node->hops >= 0) {
        Note(node.get(), node->hops, node->slot, Access::kUse);
      }
      return;
    }
    if (node->kind == NodeKind::kThisExpr) {
      if (node->hops >= 0) {
        Note(node.get(), node->hops, 0, Access::kPin);
      }
      return;
    }
    if (node->IsFunctionLike()) {
      Function(node);
      return;
    }
    for (const NodePtr& child : node->children) {
      if (child == nullptr) {
        continue;
      }
      if (child->kind == NodeKind::kBlockStmt) {
        Stmt(child);
      } else {
        Expr(child);
      }
    }
  }

  std::vector<int32_t> entry_slots_;
  std::vector<Frame> frames_;
  int owned_frames_ = 0;
  int foreign_ = 0;            // > 0 while walking code that runs outside the chunk
  const Node* direct_ = nullptr;  // the statement whose stores run first on frame entry
  std::vector<Local> locals_;
  std::map<std::pair<const Node*, int32_t>, size_t> local_index_;
};

// The compiler mirrors the reference tree-walker's evaluation order and
// environment discipline instruction for instruction: every
// Environment::MakeChild site in the tree-walker has a matching kEnvPush here
// (or, for catch frames, in Vm::RunTry), and transparent blocks are skipped
// under the same `slot == 0 && frame_size == 0` test, so the runtime parent
// chain — and with it every (hops, slot) coordinate — lines up between the
// evaluators.
class Compiler {
 public:
  // `fuse_dift` selects the fused compilation flavor: recognized `__dift.*`
  // call shapes lower onto the labelled opcodes and plain member accesses use
  // the kGetPropLabelled/kSetPropLabelled variants. Only privacy-sensitive
  // chunks (those that mention `__dift` at all — which is "everywhere" under
  // exhaustive instrumentation) are compiled this way; see
  // GetOrCompileProgramFused.
  explicit Compiler(Chunk* chunk, bool fuse_dift = false)
      : chunk_(chunk), fuse_dift_(fuse_dift) {}

  void CompileProgram(const NodePtr& root) {
    ReserveLocals(LocalAnalysis(root, {}).Assign());
    // Function-declaration hoisting: same double-definition the tree-walker
    // performs (hoist pass + textual position).
    for (const NodePtr& stmt : root->children) {
      if (stmt->kind == NodeKind::kFunctionDecl) {
        CompileStmt(stmt);
      }
    }
    for (const NodePtr& stmt : root->children) {
      CompileStmt(stmt);
    }
    Emit(root.get(), Op::kHalt);
    Finish();
  }

  void CompileFunctionBody(const NodePtr& body, std::span<const NodePtr> entry_decls) {
    ReserveLocals(LocalAnalysis(body, entry_decls).Assign());
    // Prologue: register-resident parameters leave their call-frame slots.
    for (const auto& [slot, reg] : locals_.entry_copies) {
      Emit(body.get(), Op::kLoadSlot, reg, 0, slot);
    }
    if (body->kind == NodeKind::kBlockStmt) {
      CompileBlock(body);
      Emit(body.get(), Op::kHalt);
    } else {
      RegScope scope(this);
      Emit(body.get(), Op::kHaltValue, CompileOperand(body));
    }
    Finish();
  }

 private:
  // --- registers -------------------------------------------------------------

  struct RegScope {
    explicit RegScope(Compiler* c) : c_(c), saved_(c->next_reg_) {}
    ~RegScope() { c_->next_reg_ = saved_; }
    Compiler* c_;
    int saved_;
  };

  int AllocReg() {
    int r = next_reg_++;
    if (next_reg_ > max_regs_) {
      max_regs_ = next_reg_;
    }
    return r;
  }

  // --- register locals -------------------------------------------------------

  // Resident locals take the low registers; temporaries start above them.
  void ReserveLocals(LocalAnalysis::Locals locals) {
    locals_ = std::move(locals);
    next_reg_ = max_regs_ = locals_.count;
  }

  // The register of a resident local's use or declaration node, else -1.
  int LocalReg(const NodePtr& node) const {
    auto it = locals_.regs.find(node.get());
    return it != locals_.regs.end() ? it->second : -1;
  }

  // A frame re-entered within one activation (inside a loop) starts over with
  // undefined slots; its resident locals that may be read before they are
  // stored start over too (see LocalAnalysis).
  void EmitLocalResets(const NodePtr& frame_owner) {
    if (loops_.empty()) {
      return;
    }
    auto it = locals_.resets.find(frame_owner.get());
    if (it == locals_.resets.end()) {
      return;
    }
    for (int reg : it->second) {
      EmitLoadUndef(frame_owner.get(), reg);
    }
  }

  // Does `expr` assign or update the register local `reg`? Nested functions
  // cannot: a local they name is never resident.
  bool Assigns(const NodePtr& expr, int reg) const {
    if ((expr->kind == NodeKind::kAssignExpr || expr->kind == NodeKind::kUpdateExpr) &&
        LocalReg(expr->children[0]) == reg) {
      return true;
    }
    if (expr->IsFunctionLike()) {
      return false;
    }
    for (const NodePtr& child : expr->children) {
      if (child != nullptr && Assigns(child, reg)) {
        return true;
      }
    }
    return false;
  }

  // Does any of parent->children[next..] assign the register local `reg`?
  bool AssignsLater(const Node* parent, size_t next, int reg) const {
    for (size_t i = next; parent != nullptr && i < parent->children.size(); ++i) {
      if (Assigns(parent->children[i], reg)) {
        return true;
      }
    }
    return false;
  }

  // The register holding `node`'s value for an instruction that reads it
  // after parent->children[next..] are evaluated: a resident local's own
  // register unless one of those may assign it (then the read must see the
  // value from before), otherwise a fresh temporary `node` is compiled into.
  int CompileOperand(const NodePtr& node, const Node* parent = nullptr, size_t next = 0) {
    int reg = LocalReg(node);
    if (reg >= 0 && !AssignsLater(parent, next, reg)) {
      return reg;
    }
    int r = AllocReg();
    CompileExprInto(r, node);
    return r;
  }

  // As CompileOperand, for value operands (bytecode.h): a number literal
  // becomes a constant operand with no kLoadConst of its own.
  int CompileValueOperand(const NodePtr& node, const Node* parent = nullptr, size_t next = 0) {
    if (node->kind == NodeKind::kNumberLit) {
      return ~ConstIdx(Value(node->num));
    }
    return CompileOperand(node, parent, next);
  }

  // True when compiling `expr` into a register writes that register only with
  // its last instruction on every path, so the expression may read the
  // register's old value until then: compiling straight into a resident
  // local is then safe even when `expr` reads the local.
  static bool WritesDstLast(const NodePtr& expr) {
    switch (expr->kind) {
      case NodeKind::kObjectLit:
      case NodeKind::kLogicalExpr:
      case NodeKind::kAssignExpr:
        return false;
      case NodeKind::kSequenceExpr:
        return expr->children.empty() ||
               (expr->children.size() == 1 && WritesDstLast(expr->children[0]));
      case NodeKind::kConditionalExpr:
        return WritesDstLast(expr->children[1]) && WritesDstLast(expr->children[2]);
      default:
        return true;
    }
  }

  // Compiles `expr` into the resident local `reg`.
  void CompileIntoLocal(int reg, const NodePtr& expr) {
    if (WritesDstLast(expr)) {
      CompileExprInto(reg, expr);
      return;
    }
    RegScope scope(this);
    int value = AllocReg();
    CompileExprInto(value, expr);
    Emit(expr.get(), Op::kMove, reg, value);
  }

  // --- emission and pools ----------------------------------------------------

  size_t Emit(const Node* dbg, Op op, int32_t a = 0, int32_t b = 0, int32_t c = 0,
              int32_t d = 0, int32_t e = 0, int32_t f = 0) {
    chunk_->code.push_back(Insn{op, a, b, c, d, e, f});
    chunk_->debug_nodes.push_back(dbg);
    return chunk_->code.size() - 1;
  }

  int Here() const { return static_cast<int>(chunk_->code.size()); }

  // Jump targets always live in operand `a` (bytecode.h invariant).
  void PatchJump(size_t insn, int target) {
    chunk_->code[insn].a = target;
  }

  int ConstIdx(Value v) {
    chunk_->constants.push_back(std::move(v));
    return static_cast<int>(chunk_->constants.size() - 1);
  }

  int UndefConstIdx() {
    if (undef_const_ < 0) {
      undef_const_ = ConstIdx(Value::Undefined());
    }
    return undef_const_;
  }

  int NameIdx(const std::string& name) {
    auto it = name_indices_.find(name);
    if (it != name_indices_.end()) {
      return it->second;
    }
    chunk_->names.push_back(name);
    int idx = static_cast<int>(chunk_->names.size() - 1);
    name_indices_.emplace(name, idx);
    return idx;
  }

  int NodeIdx(const NodePtr& node) {
    chunk_->nodes.push_back(node.get());
    return static_cast<int>(chunk_->nodes.size() - 1);
  }

  void EmitLoadUndef(const Node* dbg, int dst) {
    Emit(dbg, Op::kLoadConst, dst, UndefConstIdx());
  }

  static int32_t AtomOf(const NodePtr& node) {
    Atom atom = node->atom != kAtomEmpty || node->str.empty() ? node->atom
                                                              : InternAtom(node->str);
    return static_cast<int32_t>(atom);
  }

  // --- loops -----------------------------------------------------------------

  struct LoopCtx {
    int break_env_depth;     // env depth at the break landing site
    int continue_env_depth;  // env depth at the continue landing site
    bool pops_iter_on_break;
    std::vector<size_t> break_jumps;  // kJump -> patch .a
    std::vector<size_t> cont_jumps;   // kJump -> patch .a
    std::vector<size_t> trys;         // kTry -> patch .b (break) and .e (continue)
  };

  void PatchLoop(LoopCtx& loop, int break_pc, int cont_pc) {
    for (size_t insn : loop.break_jumps) {
      chunk_->code[insn].a = break_pc;
    }
    for (size_t insn : loop.cont_jumps) {
      chunk_->code[insn].a = cont_pc;
    }
    for (size_t insn : loop.trys) {
      chunk_->code[insn].b = break_pc;
      chunk_->code[insn].e = cont_pc;
    }
  }

  void EmitBreak(const Node* dbg) {
    if (loops_.empty()) {
      // No enclosing loop in this chunk: surface the abrupt completion to the
      // caller (CallFunction reports the function-boundary error; a top-level
      // break simply stops the program, as in the tree-walker).
      Emit(dbg, Op::kComplete, 0);
      return;
    }
    LoopCtx& loop = loops_.back();
    int pops = env_depth_ - loop.break_env_depth;
    if (pops > 0) {
      Emit(dbg, Op::kEnvPopN, pops);
    }
    if (loop.pops_iter_on_break) {
      Emit(dbg, Op::kIterPop);
    }
    loop.break_jumps.push_back(Emit(dbg, Op::kJump, -1));
  }

  void EmitContinue(const Node* dbg) {
    if (loops_.empty()) {
      Emit(dbg, Op::kComplete, 1);
      return;
    }
    LoopCtx& loop = loops_.back();
    int pops = env_depth_ - loop.continue_env_depth;
    if (pops > 0) {
      Emit(dbg, Op::kEnvPopN, pops);
    }
    loop.cont_jumps.push_back(Emit(dbg, Op::kJump, -1));
  }

  // A try statement runs its blocks as sub-chunks (Vm::RunTry), so a break or
  // continue inside them surfaces as a completion. Inside a loop the
  // instruction carries break/continue trampolines (landing pc + how many
  // environments to unwind from this site); outside, abrupt loop completions
  // propagate out of the chunk.
  void EmitTry(const NodePtr& node) {
    size_t insn = Emit(node.get(), Op::kTry, NodeIdx(node), -1, 0, 0, -1, 0);
    if (!loops_.empty()) {
      LoopCtx& loop = loops_.back();
      chunk_->code[insn].c = env_depth_ - loop.break_env_depth;
      chunk_->code[insn].d = loop.pops_iter_on_break ? 1 : 0;
      chunk_->code[insn].f = env_depth_ - loop.continue_env_depth;
      loop.trys.push_back(insn);
    }
  }

  // A runtime error known at compile time: the reference tree-walker's exact
  // status, raised after whatever operands it evaluates first.
  void EmitRaise(const NodePtr& node, const Status& status) {
    Emit(node.get(), Op::kRaise, static_cast<int32_t>(status.code()), NameIdx(status.message()));
  }

  // --- identifiers -----------------------------------------------------------

  void EmitLoadIdent(int dst, const NodePtr& node, const char* error_verb) {
    if (int reg = LocalReg(node); reg >= 0) {
      if (reg != dst) {
        Emit(node.get(), Op::kMove, dst, reg);
      }
      return;
    }
    if (node->hops >= 0) {
      Emit(node.get(), Op::kLoadSlot, dst, node->hops, node->slot);
      return;
    }
    // Unbound-name diagnostics are precomputed: the failure message is fixed
    // at compile time, so the dispatch loop never builds strings.
    int msg = NameIdx(std::string(error_verb) + " undeclared variable " + node->str +
                      (error_verb[0] == 'r' ? " at " + node->loc.ToString() : ""));
    if (node->hops == kHopsGlobal) {
      Emit(node.get(), Op::kLoadGlobal, dst, AtomOf(node), msg);
    } else {
      Emit(node.get(), Op::kLoadDyn, dst, static_cast<int32_t>(InternAtom(node->str)), msg);
    }
  }

  void EmitStoreIdent(const NodePtr& node, int src) {
    if (int reg = LocalReg(node); reg >= 0) {
      if (reg != src) {
        Emit(node.get(), Op::kMove, reg, src);
      }
    } else if (node->hops >= 0) {
      Emit(node.get(), Op::kStoreSlot, node->hops, node->slot, src);
    } else if (node->hops == kHopsGlobal) {
      Emit(node.get(), Op::kStoreGlobal, AtomOf(node), src);
    } else {
      Emit(node.get(), Op::kStoreDyn, static_cast<int32_t>(InternAtom(node->str)), src);
    }
  }

  // --- expressions -----------------------------------------------------------

  void CompileExprInto(int dst, const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kNumberLit:
        Emit(node.get(), Op::kLoadConst, dst, ConstIdx(Value(node->num)));
        return;
      case NodeKind::kStringLit:
        Emit(node.get(), Op::kLoadConst, dst, ConstIdx(Value(node->str)));
        return;
      case NodeKind::kBoolLit:
        Emit(node.get(), Op::kLoadConst, dst, ConstIdx(Value(node->num != 0)));
        return;
      case NodeKind::kNullLit:
        Emit(node.get(), Op::kLoadConst, dst, ConstIdx(Value::Null()));
        return;
      case NodeKind::kUndefinedLit:
        EmitLoadUndef(node.get(), dst);
        return;
      case NodeKind::kThisExpr:
        if (node->hops >= 0) {
          Emit(node.get(), Op::kLoadSlot, dst, node->hops, 0);
        } else {
          Emit(node.get(), Op::kLoadThisDyn, dst, static_cast<int32_t>(InternAtom("this")));
        }
        return;
      case NodeKind::kIdentifier:
        EmitLoadIdent(dst, node, "reference to");
        return;
      case NodeKind::kArrayLit:
        CompileArrayLit(dst, node);
        return;
      case NodeKind::kObjectLit:
        CompileObjectLit(dst, node);
        return;
      case NodeKind::kFunctionExpr:
      case NodeKind::kArrowFunction:
        Emit(node.get(), Op::kClosure, dst, NodeIdx(node));
        return;
      case NodeKind::kCallExpr:
        CompileCall(dst, node);
        return;
      case NodeKind::kNewExpr:
        CompileNew(dst, node);
        return;
      case NodeKind::kMemberExpr: {
        RegScope scope(this);
        int obj = CompileOperand(node->children[0]);
        size_t skip = SIZE_MAX;
        if (node->num != 0) {  // optional chaining
          skip = Emit(node.get(), Op::kJumpIfNullish, -1, obj);
        }
        EmitGetMember(dst, obj, node);
        if (skip != SIZE_MAX) {
          size_t done = Emit(node.get(), Op::kJump, -1);
          PatchJump(skip, Here());
          EmitLoadUndef(node.get(), dst);
          PatchJump(done, Here());
        }
        return;
      }
      case NodeKind::kIndexExpr: {
        RegScope scope(this);
        int obj = CompileOperand(node->children[0], node.get(), 1);
        int key = CompileOperand(node->children[1]);
        Emit(node.get(), Op::kGetIndex, dst, obj, key);
        return;
      }
      case NodeKind::kBinaryExpr: {
        BinaryOp op = BinaryOpFromString(node->str);
        RegScope scope(this);
        int left = CompileValueOperand(node->children[0], node.get(), 1);
        int right = CompileValueOperand(node->children[1]);
        if (op == BinaryOp::kInvalid) {
          EmitRaise(node, UnimplementedError("binary operator " + node->str));
          return;
        }
        Emit(node.get(), Op::kBinary, dst, static_cast<int32_t>(op), left, right);
        return;
      }
      case NodeKind::kLogicalExpr: {
        CompileExprInto(dst, node->children[0]);
        Op jump = node->str == "&&"   ? Op::kJumpIfFalse
                  : node->str == "||" ? Op::kJumpIfTrue
                                      : Op::kJumpIfNotNullish;  // ??
        size_t shortcut = Emit(node.get(), jump, -1, dst);
        CompileExprInto(dst, node->children[1]);
        PatchJump(shortcut, Here());
        return;
      }
      case NodeKind::kUnaryExpr:
        CompileUnary(dst, node);
        return;
      case NodeKind::kUpdateExpr:
        CompileUpdate(dst, node);
        return;
      case NodeKind::kAssignExpr:
        CompileAssign(dst, node);
        return;
      case NodeKind::kConditionalExpr: {
        size_t to_else = CompileBranchIfFalse(node, node->children[0]);
        CompileExprInto(dst, node->children[1]);
        size_t to_end = Emit(node.get(), Op::kJump, -1);
        PatchJump(to_else, Here());
        CompileExprInto(dst, node->children[2]);
        PatchJump(to_end, Here());
        return;
      }
      case NodeKind::kAwaitExpr: {
        RegScope scope(this);
        Emit(node.get(), Op::kAwait, dst, CompileOperand(node->children[0]));
        return;
      }
      case NodeKind::kSequenceExpr:
        if (node->children.empty()) {
          EmitLoadUndef(node.get(), dst);
          return;
        }
        for (const NodePtr& part : node->children) {
          CompileExprInto(dst, part);
        }
        return;
      case NodeKind::kSpreadElement:
        EmitRaise(node, Interpreter::TypeError("spread element outside call/array context"));
        return;
      default:
        EmitRaise(node, InternalError(std::string("unexpected ") + NodeKindName(node->kind) +
                                      " in expression position"));
        return;
    }
  }

  void EmitGetMember(int dst, int obj, const NodePtr& member) {
    if (member->atom != kAtomEmpty) {
      Emit(member.get(), fuse_dift_ ? Op::kGetPropLabelled : Op::kGetProp, dst, obj,
           static_cast<int32_t>(member->atom));
    } else {
      Emit(member.get(), Op::kGetPropName, dst, obj, NameIdx(member->str));
    }
  }

  void CompileArrayLit(int dst, const NodePtr& node) {
    bool has_spread = false;
    for (const NodePtr& element : node->children) {
      if (element->kind == NodeKind::kSpreadElement) {
        has_spread = true;
        break;
      }
    }
    if (!has_spread) {
      RegScope scope(this);
      int base = next_reg_;
      for (const NodePtr& element : node->children) {
        int r = AllocReg();
        CompileExprInto(r, element);
      }
      Emit(node.get(), Op::kArray, dst, base, static_cast<int32_t>(node->children.size()));
      return;
    }
    Emit(node.get(), Op::kArgStart);
    for (const NodePtr& element : node->children) {
      RegScope scope(this);
      int r = AllocReg();
      if (element->kind == NodeKind::kSpreadElement) {
        CompileExprInto(r, element->children[0]);
        Emit(element.get(), Op::kArgSpread, r, 1);
      } else {
        CompileExprInto(r, element);
        Emit(element.get(), Op::kArgPush, r);
      }
    }
    Emit(node.get(), Op::kArrayV, dst);
  }

  void CompileObjectLit(int dst, const NodePtr& node) {
    Emit(node.get(), Op::kObjNew, dst);
    for (const NodePtr& prop : node->children) {
      RegScope scope(this);
      if (prop->num != 0) {  // computed key
        int key = AllocReg();
        CompileExprInto(key, prop->children[0]);
        int value = AllocReg();
        CompileExprInto(value, prop->children[1]);
        Emit(prop.get(), Op::kObjSetComputed, dst, key, value);
      } else {
        int value = AllocReg();
        CompileExprInto(value, prop->children[0]);
        if (prop->atom != kAtomEmpty) {
          Emit(prop.get(), Op::kObjSetAtom, dst, static_cast<int32_t>(prop->atom), value);
        } else {
          Emit(prop.get(), Op::kObjSetName, dst, NameIdx(prop->str), value);
        }
      }
    }
  }

  // Compiles the arguments of a call/new/array-literal region. Returns true
  // and leaves a populated argument buffer when spread is involved; otherwise
  // fills a contiguous register window starting at *base.
  bool CompileArgs(const NodePtr& node, size_t first, int* base, int* count) {
    bool has_spread = false;
    for (size_t i = first; i < node->children.size(); ++i) {
      if (node->children[i]->kind == NodeKind::kSpreadElement) {
        has_spread = true;
        break;
      }
    }
    if (!has_spread) {
      *base = next_reg_;
      *count = static_cast<int>(node->children.size() - first);
      for (size_t i = first; i < node->children.size(); ++i) {
        int r = AllocReg();
        CompileExprInto(r, node->children[i]);
      }
      return false;
    }
    Emit(node.get(), Op::kArgStart);
    for (size_t i = first; i < node->children.size(); ++i) {
      const NodePtr& arg = node->children[i];
      RegScope scope(this);
      int r = AllocReg();
      if (arg->kind == NodeKind::kSpreadElement) {
        CompileExprInto(r, arg->children[0]);
        Emit(arg.get(), Op::kArgSpread, r, 0);
      } else {
        CompileExprInto(r, arg);
        Emit(arg.get(), Op::kArgPush, r);
      }
    }
    return true;
  }

  // --- fused DIFT call sites -------------------------------------------------

  // Emits the kDiftGuard prologue for a fused `__dift.<method>` site and
  // returns the guard register pair base (r[base] = method fn, r[base+1] =
  // the `__dift` object — populated only when no DiftHook is installed). The
  // guard runs *before* operand evaluation, exactly where the call lowering
  // evaluates its callee, so tracker-free programs fail with the same
  // undeclared-variable error at the same point.
  int EmitDiftGuard(const NodePtr& object, const NodePtr& callee) {
    int base = AllocReg();
    AllocReg();  // base + 1
    int msg = NameIdx("reference to undeclared variable " + object->str + " at " +
                      object->loc.ToString());
    Emit(callee.get(), Op::kDiftGuard, base, AtomOf(callee), msg, AtomOf(object));
    return base;
  }

  // Recognizes the instrumentor's `__dift.<method>(...)` call shapes and
  // lowers them onto the labelled opcodes. Returns false — and the caller
  // emits the ordinary call lowering — for every shape the fused ISA does not
  // cover. `__dift.label` stays call-lowered: the fused ISA covers binaryOp,
  // check and invoke only.
  bool TryCompileDiftCall(int dst, const NodePtr& node) {
    const NodePtr& callee = node->children[0];
    if (callee->kind != NodeKind::kMemberExpr || callee->num != 0) {
      return false;  // not a member call / optional chaining
    }
    const NodePtr& object = callee->children[0];
    if (object->kind != NodeKind::kIdentifier || object->str != "__dift" ||
        object->hops != kHopsGlobal) {
      return false;  // only the global `__dift` binding is fusable
    }
    for (size_t i = 1; i < node->children.size(); ++i) {
      if (node->children[i]->kind == NodeKind::kSpreadElement) {
        return false;
      }
    }
    const std::string& method = callee->str;
    if (method == "binaryOp" && node->children.size() == 4 &&
        node->children[1]->kind == NodeKind::kStringLit) {
      // Decoded at compile time; kInvalid spellings still fuse — the tracker
      // reproduces the string API's UnimplementedError from names[f].
      BinaryOp op = BinaryOpFromString(node->children[1]->str);
      RegScope scope(this);
      int guard = EmitDiftGuard(object, callee);
      int left = CompileValueOperand(node->children[2], node.get(), 3);
      int right = CompileValueOperand(node->children[3]);
      Emit(node.get(), Op::kBinaryLabelled, dst, static_cast<int32_t>(op), left, right,
           guard, NameIdx(node->children[1]->str));
      return true;
    }
    if (method == "check" && node->children.size() == 3) {
      RegScope scope(this);
      int guard = EmitDiftGuard(object, callee);
      int data = CompileOperand(node->children[1], node.get(), 2);
      int recv = CompileOperand(node->children[2]);
      Emit(node.get(), Op::kCheckSink, dst, data, recv, guard);
      return true;
    }
    if (method == "invoke" && node->children.size() == 4 &&
        node->children[2]->kind == NodeKind::kStringLit &&
        node->children[3]->kind == NodeKind::kArrayLit) {
      const NodePtr& args_array = node->children[3];
      for (const NodePtr& element : args_array->children) {
        if (element->kind == NodeKind::kSpreadElement) {
          return false;
        }
      }
      RegScope scope(this);
      int guard = EmitDiftGuard(object, callee);
      int target = AllocReg();
      CompileExprInto(target, node->children[1]);
      int base = next_reg_;
      for (const NodePtr& element : args_array->children) {
        int r = AllocReg();
        CompileExprInto(r, element);
      }
      Emit(node.get(), Op::kCallLabelled, dst, target, base,
           static_cast<int32_t>(args_array->children.size()), guard,
           NameIdx(node->children[2]->str));
      return true;
    }
    return false;
  }

  void CompileCall(int dst, const NodePtr& node) {
    if (fuse_dift_ && TryCompileDiftCall(dst, node)) {
      return;
    }
    const NodePtr& callee = node->children[0];
    int name = NameIdx(callee->str);
    RegScope scope(this);
    int fn = -1;
    int this_reg = -1;
    size_t skip = SIZE_MAX;
    if (callee->kind == NodeKind::kMemberExpr) {
      fn = AllocReg();
      this_reg = CompileOperand(callee->children[0], node.get(), 1);
      if (callee->num != 0) {  // optional call a?.b(...): nullish skips args too
        skip = Emit(callee.get(), Op::kJumpIfNullish, -1, this_reg);
      }
      EmitGetMember(fn, this_reg, callee);
    } else if (callee->kind == NodeKind::kIndexExpr) {
      fn = AllocReg();
      this_reg = AllocReg();
      CompileExprInto(this_reg, callee->children[0]);
      {
        RegScope key_scope(this);
        int key = AllocReg();
        CompileExprInto(key, callee->children[1]);
        Emit(callee.get(), Op::kGetIndex, fn, this_reg, key);
      }
    } else {
      fn = CompileOperand(callee, node.get(), 1);
    }
    int base = 0;
    int count = 0;
    if (CompileArgs(node, 1, &base, &count)) {
      Emit(node.get(), Op::kCallV, dst, fn, this_reg, 0, 0, name);
    } else {
      Emit(node.get(), Op::kCall, dst, fn, this_reg, base, count, name);
    }
    if (skip != SIZE_MAX) {
      size_t done = Emit(node.get(), Op::kJump, -1);
      PatchJump(skip, Here());
      EmitLoadUndef(node.get(), dst);
      PatchJump(done, Here());
    }
  }

  void CompileNew(int dst, const NodePtr& node) {
    RegScope scope(this);
    int fn = AllocReg();
    CompileExprInto(fn, node->children[0]);
    int base = 0;
    int count = 0;
    if (CompileArgs(node, 1, &base, &count)) {
      Emit(node.get(), Op::kNewV, dst, fn);
    } else {
      Emit(node.get(), Op::kNew, dst, fn, base, count);
    }
  }

  void CompileUnary(int dst, const NodePtr& node) {
    const std::string& op = node->str;
    if (op == "typeof") {
      const NodePtr& operand = node->children[0];
      RegScope scope(this);
      int r;
      if (operand->kind == NodeKind::kIdentifier && operand->hops < 0) {
        // typeof tolerates unbound names: soft loads yield undefined, whose
        // TypeName matches the tree-walker's literal "undefined".
        r = AllocReg();
        if (operand->hops == kHopsGlobal) {
          Emit(operand.get(), Op::kLoadGlobalSoft, r, AtomOf(operand));
        } else {
          Emit(operand.get(), Op::kLoadDynSoft, r,
               static_cast<int32_t>(InternAtom(operand->str)));
        }
      } else {
        r = CompileOperand(operand);
      }
      Emit(node.get(), Op::kTypeof, dst, r);
      return;
    }
    if (op == "delete") {
      const NodePtr& target = node->children[0];
      if (target->kind == NodeKind::kMemberExpr || target->kind == NodeKind::kIndexExpr) {
        RegScope scope(this);
        int obj = AllocReg();
        CompileExprInto(obj, target->children[0]);
        if (target->kind == NodeKind::kMemberExpr) {
          Emit(target.get(), Op::kDeleteProp, obj, NameIdx(target->str));
        } else {
          int key = AllocReg();
          CompileExprInto(key, target->children[1]);
          Emit(target.get(), Op::kDeleteIndex, obj, key);
        }
        Emit(node.get(), Op::kLoadConst, dst, ConstIdx(Value(true)));
        return;
      }
      // Non-member delete targets are not evaluated; the result is false.
      Emit(node.get(), Op::kLoadConst, dst, ConstIdx(Value(false)));
      return;
    }
    RegScope scope(this);
    int r = CompileOperand(node->children[0]);
    UnaryOp decoded;
    if (op == "!") {
      decoded = UnaryOp::kNot;
    } else if (op == "-") {
      decoded = UnaryOp::kNeg;
    } else if (op == "+") {
      decoded = UnaryOp::kPlus;
    } else if (op == "~") {
      decoded = UnaryOp::kBitNot;
    } else {
      EmitRaise(node, UnimplementedError("unary operator " + op));
      return;
    }
    Emit(node.get(), Op::kUnary, dst, static_cast<int32_t>(decoded), r);
  }

  void CompileUpdate(int dst, const NodePtr& node) {
    const NodePtr& target = node->children[0];
    BinaryOp step = node->str == "++" ? BinaryOp::kAdd : BinaryOp::kSub;
    bool prefix = node->num != 0;
    if (target->kind == NodeKind::kIdentifier) {
      RegScope scope(this);
      // A resident local is read in place: the coercion below consumes it
      // before anything can change it.
      int old_raw = LocalReg(target);
      if (old_raw < 0) {
        old_raw = AllocReg();
        if (target->hops >= 0) {
          Emit(target.get(), Op::kLoadSlot, old_raw, target->hops, target->slot);
        } else {
          int msg = NameIdx("update of undeclared variable " + target->str);
          if (target->hops == kHopsGlobal) {
            Emit(target.get(), Op::kLoadGlobal, old_raw, AtomOf(target), msg);
          } else {
            Emit(target.get(), Op::kLoadDyn, old_raw,
                 static_cast<int32_t>(InternAtom(target->str)), msg);
          }
        }
      }
      EmitUpdateArithmetic(node, target, step, prefix, dst, old_raw,
                           /*obj=*/-1, /*key=*/-1, /*member=*/nullptr);
      return;
    }
    if (target->kind == NodeKind::kMemberExpr || target->kind == NodeKind::kIndexExpr) {
      RegScope scope(this);
      int obj = CompileOperand(target->children[0], target.get(), 1);
      int key = -1;
      if (target->kind == NodeKind::kIndexExpr) {
        key = CompileOperand(target->children[1]);
      }
      int old_raw = AllocReg();
      if (target->kind == NodeKind::kMemberExpr) {
        EmitGetMember(old_raw, obj, target);
      } else {
        Emit(target.get(), Op::kGetIndex, old_raw, obj, key);
      }
      EmitUpdateArithmetic(node, target, step, prefix, dst, old_raw, obj, key, target.get());
      return;
    }
    EmitRaise(node, Interpreter::TypeError("invalid update target"));  // `++1`
  }

  // Shared tail of kUpdateExpr: coerce, step by one, store, pick the result
  // per fixity (the *coerced* old number for postfix, matching the oracle).
  void EmitUpdateArithmetic(const NodePtr& node, const NodePtr& target, BinaryOp step,
                            bool prefix, int dst, int old_raw, int obj, int key,
                            const Node* member) {
    int old_num = AllocReg();
    Emit(node.get(), Op::kUnary, old_num, static_cast<int32_t>(UnaryOp::kPlus), old_raw);
    int updated = AllocReg();
    Emit(node.get(), Op::kBinary, updated, static_cast<int32_t>(step), old_num,
         ~ConstIdx(Value(1.0)));
    if (member == nullptr) {
      EmitStoreIdent(target, updated);
    } else if (member->kind == NodeKind::kMemberExpr) {
      EmitSetMember(obj, target, updated);
    } else {
      Emit(member, Op::kSetIndex, obj, key, updated);
    }
    Emit(node.get(), Op::kMove, dst, prefix ? updated : old_num);
  }

  void EmitSetMember(int obj, const NodePtr& member, int src) {
    if (member->atom != kAtomEmpty) {
      Emit(member.get(), fuse_dift_ ? Op::kSetPropLabelled : Op::kSetProp, obj,
           static_cast<int32_t>(member->atom), src);
    } else {
      Emit(member.get(), Op::kSetPropName, obj, NameIdx(member->str), src);
    }
  }

  void CompileAssign(int dst, const NodePtr& node) {
    const NodePtr& target = node->children[0];
    const std::string& op = node->str;
    bool plain = op == "=";
    bool logical = op == "&&=" || op == "||=" || op == "?\?=";
    // kInvalid for an unknown compound spelling: EmitAssignValue raises after
    // evaluating the target and RHS, as the oracle does.
    BinaryOp compound = BinaryOp::kInvalid;
    if (!plain && !logical) {
      compound = BinaryOpFromString(op.substr(0, op.size() - 1));
    }
    if (int reg = LocalReg(target); reg >= 0) {
      CompileAssignLocal(node, reg, plain, logical, compound);
      if (dst >= 0 && dst != reg) {
        Emit(node.get(), Op::kMove, dst, reg);
      }
      return;
    }
    if (target->kind == NodeKind::kIdentifier) {
      RegScope scope(this);
      int old_raw = -1;
      if (!plain) {
        old_raw = AllocReg();
        if (target->hops >= 0) {
          Emit(target.get(), Op::kLoadSlot, old_raw, target->hops, target->slot);
        } else {
          int msg = NameIdx("assignment to undeclared variable " + target->str);
          if (target->hops == kHopsGlobal) {
            Emit(target.get(), Op::kLoadGlobal, old_raw, AtomOf(target), msg);
          } else {
            Emit(target.get(), Op::kLoadDyn, old_raw,
                 static_cast<int32_t>(InternAtom(target->str)), msg);
          }
        }
      }
      if (compound == BinaryOp::kAdd && target->hops >= 0) {
        // `s += x` on a slot local: one kAddSlot instead of kBinary +
        // kStoreSlot, so a string built up in a loop grows in place.
        RegScope rhs_scope(this);
        int rhs = AllocReg();
        CompileExprInto(rhs, node->children[1]);
        Emit(node.get(), Op::kAddSlot, dst, target->hops, target->slot, old_raw, rhs);
        return;
      }
      EmitAssignValue(node, plain, logical, compound, dst, old_raw);
      EmitStoreIdent(target, dst);
      return;
    }
    if (target->kind == NodeKind::kMemberExpr || target->kind == NodeKind::kIndexExpr) {
      RegScope scope(this);
      // The store reads the object (and key) after the value is computed.
      int obj = LocalReg(target->children[0]);
      if (obj < 0 || AssignsLater(target.get(), 1, obj) || AssignsLater(node.get(), 1, obj)) {
        obj = AllocReg();
        CompileExprInto(obj, target->children[0]);
      }
      int key = -1;
      if (target->kind == NodeKind::kIndexExpr) {
        key = CompileOperand(target->children[1], node.get(), 1);
      }
      int old_raw = -1;
      if (!plain) {
        old_raw = AllocReg();
        if (target->kind == NodeKind::kMemberExpr) {
          EmitGetMember(old_raw, obj, target);
        } else {
          Emit(target.get(), Op::kGetIndex, old_raw, obj, key);
        }
      }
      EmitAssignValue(node, plain, logical, compound, dst, old_raw);
      if (target->kind == NodeKind::kMemberExpr) {
        EmitSetMember(obj, target, dst);
      } else {
        Emit(target.get(), Op::kSetIndex, obj, key, dst);
      }
      return;
    }
    EmitRaise(node, Interpreter::TypeError("invalid assignment target"));
  }

  // Assignment to a resident local: the value lands in its register.
  void CompileAssignLocal(const NodePtr& node, int reg, bool plain, bool logical,
                          BinaryOp compound) {
    const NodePtr& rhs = node->children[1];
    if (plain) {
      CompileIntoLocal(reg, rhs);
      return;
    }
    RegScope scope(this);
    if (!logical && compound != BinaryOp::kInvalid && !Assigns(rhs, reg)) {
      // The right-hand side cannot change the local, so the operator reads
      // the old value straight from its register.
      int right = CompileValueOperand(rhs);
      if (compound == BinaryOp::kAdd) {
        Emit(node.get(), Op::kAddReg, reg, right);
      } else {
        Emit(node.get(), Op::kBinary, reg, static_cast<int32_t>(compound), reg, right);
      }
      return;
    }
    // Otherwise snapshot the old value first, as the slot path loads it.
    int old_raw = AllocReg();
    Emit(node->children[0].get(), Op::kMove, old_raw, reg);
    int value = AllocReg();
    EmitAssignValue(node, plain, logical, compound, value, old_raw);
    Emit(node.get(), Op::kMove, reg, value);
  }

  // Computes the stored value of an assignment into `dst`. The RHS is always
  // evaluated — including for short-circuit spellings — matching the oracle's
  // EvalAssignment exactly.
  void EmitAssignValue(const NodePtr& node, bool plain, bool logical, BinaryOp compound,
                       int dst, int old_raw) {
    const std::string& op = node->str;
    if (plain) {
      CompileExprInto(dst, node->children[1]);
      return;
    }
    if (logical) {
      CompileExprInto(dst, node->children[1]);
      Op keep_rhs = op == "&&="   ? Op::kJumpIfTrue
                    : op == "||=" ? Op::kJumpIfFalse
                                  : Op::kJumpIfNullish;  // ??=
      size_t jump = Emit(node.get(), keep_rhs, -1, old_raw);
      Emit(node.get(), Op::kMove, dst, old_raw);
      PatchJump(jump, Here());
      return;
    }
    RegScope scope(this);
    int rhs = CompileValueOperand(node->children[1]);
    if (compound == BinaryOp::kInvalid) {
      EmitRaise(node, UnimplementedError("binary operator " + op.substr(0, op.size() - 1)));
      return;
    }
    Emit(node.get(), Op::kBinary, dst, static_cast<int32_t>(compound), old_raw, rhs);
  }

  // --- statements ------------------------------------------------------------

  // Anonymous function initializers inherit the declared name. Initializers
  // that can never evaluate to a function (literals, arithmetic, updates,
  // array and object literals) skip the instruction; anything else (calls,
  // `new`, `this`, `?:`, `,`, `||`, identifiers, member reads) keeps it.
  void EmitSetFnName(const NodePtr& declarator, int reg) {
    switch (declarator->children[0]->kind) {
      case NodeKind::kNumberLit:
      case NodeKind::kStringLit:
      case NodeKind::kBoolLit:
      case NodeKind::kNullLit:
      case NodeKind::kUndefinedLit:
      case NodeKind::kBinaryExpr:
      case NodeKind::kUnaryExpr:
      case NodeKind::kUpdateExpr:
      case NodeKind::kArrayLit:
      case NodeKind::kObjectLit:
        return;
      default:
        Emit(declarator.get(), Op::kSetFnName, reg, NameIdx(declarator->str));
    }
  }

  void CompileStmt(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kVarDecl:
        for (const NodePtr& declarator : node->children) {
          RegScope scope(this);
          if (int reg = LocalReg(declarator); reg >= 0) {
            if (declarator->children.empty()) {
              EmitLoadUndef(declarator.get(), reg);
            } else {
              CompileIntoLocal(reg, declarator->children[0]);
              EmitSetFnName(declarator, reg);
            }
            continue;
          }
          int r = AllocReg();
          if (!declarator->children.empty()) {
            CompileExprInto(r, declarator->children[0]);
            EmitSetFnName(declarator, r);
          } else {
            EmitLoadUndef(declarator.get(), r);
          }
          if (declarator->slot >= 0) {
            Emit(declarator.get(), Op::kStoreSlot, 0, declarator->slot, r);
          } else {
            Emit(declarator.get(), Op::kDefineCur,
                 static_cast<int32_t>(InternAtom(declarator->str)), r);
          }
        }
        return;
      case NodeKind::kExprStmt:
        CompileEffect(node->children[0]);
        return;
      case NodeKind::kBlockStmt:
        CompileBlock(node);
        return;
      case NodeKind::kIfStmt: {
        size_t to_else = CompileBranchIfFalse(node, node->children[0]);
        CompileStmt(node->children[1]);
        if (node->children.size() > 2) {
          size_t to_end = Emit(node.get(), Op::kJump, -1);
          PatchJump(to_else, Here());
          CompileStmt(node->children[2]);
          PatchJump(to_end, Here());
        } else {
          PatchJump(to_else, Here());
        }
        return;
      }
      case NodeKind::kWhileStmt:
        CompileWhile(node);
        return;
      case NodeKind::kForStmt:
        CompileFor(node);
        return;
      case NodeKind::kForOfStmt:
        CompileForOf(node);
        return;
      case NodeKind::kReturnStmt: {
        RegScope scope(this);
        int r;
        if (node->children.empty()) {
          r = AllocReg();
          EmitLoadUndef(node.get(), r);
        } else {
          r = CompileOperand(node->children[0]);
        }
        Emit(node.get(), Op::kReturn, r);
        return;
      }
      case NodeKind::kThrowStmt: {
        RegScope scope(this);
        Emit(node.get(), Op::kThrow, CompileOperand(node->children[0]));
        return;
      }
      case NodeKind::kBreakStmt:
        EmitBreak(node.get());
        return;
      case NodeKind::kContinueStmt:
        EmitContinue(node.get());
        return;
      case NodeKind::kEmpty:
        return;
      case NodeKind::kFunctionDecl: {
        RegScope scope(this);
        if (int reg = LocalReg(node); reg >= 0) {
          Emit(node.get(), Op::kClosure, reg, NodeIdx(node));
          return;
        }
        int r = AllocReg();
        Emit(node.get(), Op::kClosure, r, NodeIdx(node));
        if (node->slot >= 0) {
          Emit(node.get(), Op::kStoreSlot, 0, node->slot, r);
        } else {
          Emit(node.get(), Op::kDefineCur, static_cast<int32_t>(InternAtom(node->str)), r);
        }
        return;
      }
      case NodeKind::kTryStmt:
        EmitTry(node);
        return;
      case NodeKind::kClassDecl:
        Emit(node.get(), Op::kClass, NodeIdx(node));
        return;
      default:
        // Expression in statement position (anything else raises there).
        CompileEffect(node);
        return;
    }
  }

  // An expression whose value is unused (statement and for-update
  // position). `x++`/`x--` on a local becomes one increment; an assignment to
  // a resident local skips the copy of its value.
  void CompileEffect(const NodePtr& node) {
    if (node->kind == NodeKind::kUpdateExpr &&
        node->children[0]->kind == NodeKind::kIdentifier) {
      const NodePtr& target = node->children[0];
      int32_t delta = node->str == "++" ? 1 : -1;
      if (int reg = LocalReg(target); reg >= 0) {
        Emit(node.get(), Op::kIncLocal, reg, delta);
        return;
      }
      if (target->hops >= 0) {
        Emit(node.get(), Op::kIncSlot, target->hops, target->slot, delta);
        return;
      }
    }
    if (node->kind == NodeKind::kAssignExpr && LocalReg(node->children[0]) >= 0) {
      CompileAssign(/*dst=*/-1, node);
      return;
    }
    if (node->kind == NodeKind::kSequenceExpr && !node->children.empty()) {
      for (const NodePtr& part : node->children) {
        CompileEffect(part);
      }
      return;
    }
    RegScope scope(this);
    int r = AllocReg();
    CompileExprInto(r, node);
  }

  // Emits the jump taken when `cond` is falsy and returns it for patching. A
  // relational or strict-equality test fuses into one kJumpUnless.
  size_t CompileBranchIfFalse(const NodePtr& stmt, const NodePtr& cond) {
    RegScope scope(this);
    if (cond->kind == NodeKind::kBinaryExpr) {
      BinaryOp op = BinaryOpFromString(cond->str);
      if (op == BinaryOp::kLt || op == BinaryOp::kGt || op == BinaryOp::kLe ||
          op == BinaryOp::kGe || op == BinaryOp::kStrictEq || op == BinaryOp::kStrictNe) {
        int left = CompileValueOperand(cond->children[0], cond.get(), 1);
        int right = CompileValueOperand(cond->children[1]);
        return Emit(cond.get(), Op::kJumpUnless, -1, static_cast<int32_t>(op), left, right);
      }
    }
    return Emit(stmt.get(), Op::kJumpIfFalse, -1, CompileOperand(cond));
  }

  void CompileBlock(const NodePtr& block) {
    // Transparent blocks (no frame) get no Environment and no hoist pass,
    // exactly like the tree-walker's EvalBlock.
    bool transparent = block->slot == 0 && block->frame_size == 0;
    if (!transparent) {
      Emit(block.get(), Op::kEnvPush, static_cast<int32_t>(block->frame_size));
      ++env_depth_;
      EmitLocalResets(block);
      for (const NodePtr& stmt : block->children) {
        if (stmt->kind == NodeKind::kFunctionDecl) {
          CompileStmt(stmt);  // hoist: same double definition as the oracle
        }
      }
    }
    for (const NodePtr& stmt : block->children) {
      CompileStmt(stmt);
    }
    if (!transparent) {
      Emit(block.get(), Op::kEnvPop);
      --env_depth_;
    }
  }

  void CompileWhile(const NodePtr& node) {
    loops_.push_back(LoopCtx{env_depth_, env_depth_, false, {}, {}, {}});
    int start = Here();
    size_t exit_jump = CompileBranchIfFalse(node, node->children[0]);
    CompileStmt(node->children[1]);
    Emit(node.get(), Op::kJump, start);
    int exit = Here();
    PatchJump(exit_jump, exit);
    PatchLoop(loops_.back(), exit, start);
    loops_.pop_back();
  }

  void CompileFor(const NodePtr& node) {
    bool header = !(node->slot == 0 && node->frame_size == 0);
    if (header) {
      Emit(node.get(), Op::kEnvPush, static_cast<int32_t>(node->frame_size));
      ++env_depth_;
      EmitLocalResets(node);
    }
    if (node->children[0]->kind != NodeKind::kEmpty) {
      CompileStmt(node->children[0]);
    }
    loops_.push_back(LoopCtx{env_depth_, env_depth_, false, {}, {}, {}});
    int start = Here();
    size_t exit_jump = SIZE_MAX;
    if (node->children[1]->kind != NodeKind::kEmpty) {
      exit_jump = CompileBranchIfFalse(node, node->children[1]);
    }
    CompileStmt(node->children[3]);
    int cont = Here();
    if (node->children[2]->kind != NodeKind::kEmpty) {
      CompileEffect(node->children[2]);
    }
    Emit(node.get(), Op::kJump, start);
    int exit = Here();
    if (exit_jump != SIZE_MAX) {
      PatchJump(exit_jump, exit);
    }
    PatchLoop(loops_.back(), exit, cont);
    loops_.pop_back();
    if (header) {
      Emit(node.get(), Op::kEnvPop);
      --env_depth_;
    }
  }

  void CompileForOf(const NodePtr& node) {
    RegScope scope(this);  // keeps the item register alive across the loop
    {
      RegScope iterable_scope(this);
      int iterable = AllocReg();
      CompileExprInto(iterable, node->children[1]);  // evaluated in outer scope
      Emit(node.get(), Op::kIterNew, 0, iterable);
    }
    // A resident loop variable receives each item directly.
    const NodePtr& loop_var = node->children[0];
    const bool resident = LocalReg(loop_var) >= 0;
    int item = resident ? LocalReg(loop_var) : AllocReg();
    // The per-iteration environment sits one deeper than the break landing
    // site; the iteration frame must be popped on break (kIterNext pops it on
    // normal exhaustion).
    loops_.push_back(LoopCtx{env_depth_, env_depth_ + 1, true, {}, {}, {}});
    int start = Here();
    size_t next = Emit(node.get(), Op::kIterNext, -1, item);
    Emit(node.get(), Op::kEnvPush, static_cast<int32_t>(node->frame_size));
    ++env_depth_;
    EmitLocalResets(node);
    if (!resident && loop_var->slot >= 0) {
      Emit(loop_var.get(), Op::kStoreSlot, 0, loop_var->slot, item);
    } else if (!resident) {
      Emit(loop_var.get(), Op::kDefineCur, static_cast<int32_t>(InternAtom(loop_var->str)),
           item);
    }
    CompileStmt(node->children[2]);
    int cont = Here();
    Emit(node.get(), Op::kEnvPop);
    --env_depth_;
    Emit(node.get(), Op::kJump, start);
    int exit = Here();
    PatchJump(next, exit);
    PatchLoop(loops_.back(), exit, cont);
    loops_.pop_back();
  }

  void Finish() {
    chunk_->num_regs = static_cast<uint32_t>(max_regs_ > 0 ? max_regs_ : 1);
    chunk_->lines.reserve(chunk_->debug_nodes.size());
    for (const Node* node : chunk_->debug_nodes) {
      chunk_->lines.push_back(node != nullptr ? static_cast<int32_t>(node->loc.line) : 0);
    }
  }

  Chunk* chunk_;
  bool fuse_dift_ = false;
  LocalAnalysis::Locals locals_;
  int next_reg_ = 0;
  int max_regs_ = 0;
  int env_depth_ = 0;
  std::vector<LoopCtx> loops_;
  std::unordered_map<std::string, int> name_indices_;
  int undef_const_ = -1;
};

obs::Counter* ChunksCompiledCounter() {
  static obs::Counter* counter = obs::Metrics::Global().GetCounter("vm.chunks_compiled");
  return counter;
}

// Privacy-sensitivity scan for one chunk region: does this node's own code —
// excluding nested function bodies, which compile to their own chunks —
// mention `__dift`? The instrumentor only injects `__dift.*` calls into
// functions its analysis marks sensitive (selective mode) or into everything
// (exhaustive mode), so "mentions __dift" is exactly "the instrumentor
// touched this region" and the fused flavor is selected per chunk with no
// extra plumbing.
bool MentionsDift(const NodePtr& node) {
  if (node->kind == NodeKind::kIdentifier && node->str == "__dift") {
    return true;
  }
  for (const NodePtr& child : node->children) {
    if (child == nullptr || child->IsFunctionLike()) {
      continue;
    }
    if (MentionsDift(child)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kLoadConst: return "LoadConst";
    case Op::kMove: return "Move";
    case Op::kLoadSlot: return "LoadSlot";
    case Op::kStoreSlot: return "StoreSlot";
    case Op::kLoadGlobal: return "LoadGlobal";
    case Op::kLoadGlobalSoft: return "LoadGlobalSoft";
    case Op::kStoreGlobal: return "StoreGlobal";
    case Op::kLoadDyn: return "LoadDyn";
    case Op::kLoadDynSoft: return "LoadDynSoft";
    case Op::kStoreDyn: return "StoreDyn";
    case Op::kDefineCur: return "DefineCur";
    case Op::kLoadThisDyn: return "LoadThisDyn";
    case Op::kSetFnName: return "SetFnName";
    case Op::kBinary: return "Binary";
    case Op::kAddSlot: return "AddSlot";
    case Op::kAddReg: return "AddReg";
    case Op::kIncLocal: return "IncLocal";
    case Op::kIncSlot: return "IncSlot";
    case Op::kUnary: return "Unary";
    case Op::kTypeof: return "Typeof";
    case Op::kJump: return "Jump";
    case Op::kJumpIfFalse: return "JumpIfFalse";
    case Op::kJumpIfTrue: return "JumpIfTrue";
    case Op::kJumpIfNullish: return "JumpIfNullish";
    case Op::kJumpIfNotNullish: return "JumpIfNotNullish";
    case Op::kJumpUnless: return "JumpUnless";
    case Op::kGetProp: return "GetProp";
    case Op::kGetPropName: return "GetPropName";
    case Op::kGetIndex: return "GetIndex";
    case Op::kSetProp: return "SetProp";
    case Op::kSetPropName: return "SetPropName";
    case Op::kSetIndex: return "SetIndex";
    case Op::kDeleteProp: return "DeleteProp";
    case Op::kDeleteIndex: return "DeleteIndex";
    case Op::kObjNew: return "ObjNew";
    case Op::kObjSetAtom: return "ObjSetAtom";
    case Op::kObjSetName: return "ObjSetName";
    case Op::kObjSetComputed: return "ObjSetComputed";
    case Op::kArray: return "Array";
    case Op::kArrayV: return "ArrayV";
    case Op::kArgStart: return "ArgStart";
    case Op::kArgPush: return "ArgPush";
    case Op::kArgSpread: return "ArgSpread";
    case Op::kCall: return "Call";
    case Op::kCallV: return "CallV";
    case Op::kNew: return "New";
    case Op::kNewV: return "NewV";
    case Op::kClosure: return "Closure";
    case Op::kEnvPush: return "EnvPush";
    case Op::kEnvPop: return "EnvPop";
    case Op::kEnvPopN: return "EnvPopN";
    case Op::kIterNew: return "IterNew";
    case Op::kIterNext: return "IterNext";
    case Op::kIterPop: return "IterPop";
    case Op::kDiftGuard: return "DiftGuard";
    case Op::kBinaryLabelled: return "BinaryLabelled";
    case Op::kCheckSink: return "CheckSink";
    case Op::kCallLabelled: return "CallLabelled";
    case Op::kGetPropLabelled: return "GetPropLabelled";
    case Op::kSetPropLabelled: return "SetPropLabelled";
    case Op::kTry: return "Try";
    case Op::kClass: return "Class";
    case Op::kRaise: return "Raise";
    case Op::kAwait: return "Await";
    case Op::kThrow: return "Throw";
    case Op::kReturn: return "Return";
    case Op::kHalt: return "Halt";
    case Op::kHaltValue: return "HaltValue";
    case Op::kComplete: return "Complete";
  }
  return "?";
}

ChunkPtr GetOrCompileProgram(const NodePtr& root) {
  if (root->compiled_chunk != nullptr) {
    return std::static_pointer_cast<const Chunk>(root->compiled_chunk);
  }
  auto chunk = std::make_shared<Chunk>();
  Compiler(chunk.get()).CompileProgram(root);
  ChunksCompiledCounter()->Increment();
  root->compiled_chunk = chunk;
  return chunk;
}

ChunkPtr GetOrCompileFunctionBody(const NodePtr& body, std::span<const NodePtr> entry_decls) {
  if (body->compiled_chunk != nullptr) {
    return std::static_pointer_cast<const Chunk>(body->compiled_chunk);
  }
  auto chunk = std::make_shared<Chunk>();
  Compiler(chunk.get()).CompileFunctionBody(body, entry_decls);
  ChunksCompiledCounter()->Increment();
  body->compiled_chunk = chunk;
  return chunk;
}

ChunkPtr GetOrCompileProgramFused(const NodePtr& root) {
  if (root->compiled_chunk_fused != nullptr) {
    return std::static_pointer_cast<const Chunk>(root->compiled_chunk_fused);
  }
  if (!MentionsDift(root)) {
    // Nothing to fuse: alias the lowered chunk so clean code compiles once
    // and both tiers share its cache entry.
    ChunkPtr lowered = GetOrCompileProgram(root);
    root->compiled_chunk_fused = root->compiled_chunk;
    return lowered;
  }
  auto chunk = std::make_shared<Chunk>();
  Compiler(chunk.get(), /*fuse_dift=*/true).CompileProgram(root);
  ChunksCompiledCounter()->Increment();
  root->compiled_chunk_fused = chunk;
  return chunk;
}

ChunkPtr GetOrCompileFunctionBodyFused(const NodePtr& body,
                                       std::span<const NodePtr> entry_decls) {
  if (body->compiled_chunk_fused != nullptr) {
    return std::static_pointer_cast<const Chunk>(body->compiled_chunk_fused);
  }
  if (!MentionsDift(body)) {
    ChunkPtr lowered = GetOrCompileFunctionBody(body, entry_decls);
    body->compiled_chunk_fused = body->compiled_chunk;
    return lowered;
  }
  auto chunk = std::make_shared<Chunk>();
  Compiler(chunk.get(), /*fuse_dift=*/true).CompileFunctionBody(body, entry_decls);
  ChunksCompiledCounter()->Increment();
  body->compiled_chunk_fused = chunk;
  return chunk;
}

}  // namespace vm
}  // namespace turnstile
