#include "src/vm/vm.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/vm/compiler.h"

namespace turnstile {
namespace vm {

Result<Completion> Vm::ExecuteProgram(Interpreter& interp, const NodePtr& root,
                                      const EnvPtr& env) {
  // The default bytecode tier runs the DIFT-fused compilation flavor; the
  // bytecode-lowered oracle keeps every `__dift.*` hook as an ordinary call.
  ChunkPtr chunk = interp.exec_tier() == ExecTier::kBytecodeLowered
                       ? GetOrCompileProgram(root)
                       : GetOrCompileProgramFused(root);
  return Execute(interp, *chunk, env);
}

Result<Completion> Vm::ExecuteBody(Interpreter& interp, const NodePtr& body, const EnvPtr& env,
                                   std::span<const NodePtr> entry_decls) {
  ChunkPtr chunk = interp.exec_tier() == ExecTier::kBytecodeLowered
                       ? GetOrCompileFunctionBody(body, entry_decls)
                       : GetOrCompileFunctionBodyFused(body, entry_decls);
  return Execute(interp, *chunk, env);
}

Result<Completion> Vm::RunTry(Interpreter& interp, const Node& try_node, const EnvPtr& env) {
  const NodePtr& catch_block = try_node.children[2];
  TURNSTILE_ASSIGN_OR_RETURN(outcome, ExecuteBody(interp, try_node.children[0], env));
  if (outcome.kind == Completion::Kind::kThrow && catch_block->kind == NodeKind::kBlockStmt) {
    // The try node carries the catch frame's size (see resolve.h).
    EnvPtr catch_env = Environment::MakeChild(env, try_node.frame_size);
    const NodePtr& param = try_node.children[1];
    std::span<const NodePtr> catch_decls;
    if (param->kind != NodeKind::kEmpty) {
      if (param->slot >= 0) {
        catch_env->slots[static_cast<size_t>(param->slot)] = outcome.value;
      } else {
        catch_env->Define(param->str, outcome.value);
      }
      catch_decls = std::span<const NodePtr>(&param, 1);
    }
    TURNSTILE_ASSIGN_OR_RETURN(caught,
                               ExecuteBody(interp, catch_block, catch_env, catch_decls));
    outcome = std::move(caught);
  }
  if (try_node.children.size() > 3 && try_node.children[3]->kind == NodeKind::kBlockStmt) {
    TURNSTILE_ASSIGN_OR_RETURN(finally, ExecuteBody(interp, try_node.children[3], env));
    if (finally.IsAbrupt()) {
      return finally;  // finally overrides
    }
  }
  return outcome;
}

// The profiled instantiation is compiled in vm_profiled.cc; keeping it out
// of this TU preserves the inlining budget for the disabled loop.
extern template Result<Completion> Vm::ExecuteImpl<true>(Interpreter&, const Chunk&, EnvPtr);

Result<Completion> Vm::Execute(Interpreter& interp, const Chunk& chunk, EnvPtr env) {
  // interp.profiler_ caches &Profiler::Global(), avoiding the function-local
  // static guard on every activation.
  if (interp.profiler_->enabled() && !chunk.lines.empty()) {
    return ExecuteImpl<true>(interp, chunk, std::move(env));
  }
  return ExecuteImpl<false>(interp, chunk, std::move(env));
}

}  // namespace vm
}  // namespace turnstile

#include "src/vm/vm_execute.inc"

namespace turnstile {
namespace vm {
template Result<Completion> Vm::ExecuteImpl<false>(Interpreter&, const Chunk&, EnvPtr);
}  // namespace vm
}  // namespace turnstile
