// The bytecode dispatch loop: the production evaluator. Executes Chunks
// (bytecode.h) against the Interpreter's runtime — Value, Environment frames,
// builtins, the event-loop task queue — via its tier-shared helpers.
#ifndef TURNSTILE_SRC_VM_VM_H_
#define TURNSTILE_SRC_VM_VM_H_

#include <span>

#include "src/interp/dift_hook.h"
#include "src/interp/environment.h"
#include "src/interp/interp.h"
#include "src/interp/value.h"
#include "src/lang/ast.h"
#include "src/support/status.h"
#include "src/vm/bytecode.h"

namespace turnstile {
namespace vm {

class Vm {
 public:
  // Compiles (cached) and runs a kProgram root in `env` (the global scope),
  // returning the root's completion (an uncaught throw stays a Throw).
  static Result<Completion> ExecuteProgram(Interpreter& interp, const NodePtr& root,
                                           const EnvPtr& env);

  // Compiles (cached on the node) and runs a function body, or a try, catch
  // or finally block, in its already-populated environment
  // (Interpreter::CallFunction and RunTry own frame setup), in the flavor the
  // interpreter's tier selects (fused or call-lowered). Returns the same
  // Completion shapes the tree-walked body dispatch does: Normal(undefined)
  // for a block falling off the end, Normal(value) for expression-body
  // arrows, Return/Throw/Break/Continue passed through. `entry_decls` are
  // the parameters the caller bound in `env` (see GetOrCompileFunctionBody).
  static Result<Completion> ExecuteBody(Interpreter& interp, const NodePtr& body,
                                        const EnvPtr& env,
                                        std::span<const NodePtr> entry_decls = {});

  // Runs one chunk. Host errors surface as Status; MiniScript throws as
  // Completion::Throw, which only a kTry instruction (RunTry) catches.
  static Result<Completion> Execute(Interpreter& interp, const Chunk& chunk, EnvPtr env);

 private:
  // The kTry arm, kept out of line so the dispatch loop's inlining budget is
  // unaffected. Runs the try block; on a throw with a catch block, runs it in
  // a fresh catch frame (try->frame_size slots) binding the thrown value;
  // then runs the finally block, whose abrupt completion overrides — the
  // tree-walker's rule, block for block. Each block is its own sub-chunk.
  static Result<Completion> RunTry(Interpreter& interp, const Node& try_node, const EnvPtr& env);

  // The dispatch loop is compiled twice: the kProfiled=false instantiation
  // carries no per-instruction profiling code at all, so the disabled-path
  // cost is the single tier-selection branch in Execute.
  template <bool kProfiled>
  static Result<Completion> ExecuteImpl(Interpreter& interp, const Chunk& chunk, EnvPtr env);
};

}  // namespace vm
}  // namespace turnstile

#endif  // TURNSTILE_SRC_VM_VM_H_
