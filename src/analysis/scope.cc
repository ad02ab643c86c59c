// Thin adapter over the shared sema pass (src/lang/resolve.h).
//
// The analyzer historically ran its own scope walk; it now consumes the same
// resolution the interpreter executes against, so the dataflow graph and the
// runtime share one binding structure by construction. The only analyzer-side
// additions are the synthesized per-function "<return>" collector bindings,
// which are a value-flow-graph concept with no runtime storage, and the
// flattening of sema's id-keyed maps into vectors indexed by AST id.
#include "src/analysis/scope.h"

namespace turnstile {

ResolvedProgram ResolveScopes(const Program& program) {
  SemaResult sema = ResolveProgram(program);

  ResolvedProgram result;
  result.program = &program;
  result.ast_count = sema.ast_count;
  result.ast_by_id = std::move(sema.ast_by_id);
  // Sema bindings map index-for-index; graph ids are offset by ast_count.
  // The return collectors follow them, one per function.
  const int sema_bindings = static_cast<int>(sema.bindings.size());
  result.binding_count = sema_bindings + static_cast<int>(sema.functions.size());

  const size_t ast_count = static_cast<size_t>(result.ast_count);
  result.use_to_binding.assign(ast_count, -1);
  for (const auto& [use_ast, binding_index] : sema.use_to_binding) {
    result.use_to_binding[static_cast<size_t>(use_ast)] = result.BindingNode(binding_index);
  }
  result.decl_binding_by_ast.assign(ast_count, -1);
  for (const auto& [decl_ast, binding_index] : sema.decl_binding_by_ast) {
    result.decl_binding_by_ast[static_cast<size_t>(decl_ast)] =
        result.BindingNode(binding_index);
  }
  result.function_by_ast.assign(ast_count, -1);
  for (const auto& [fn_ast, fn_index] : sema.function_by_ast) {
    result.function_by_ast[static_cast<size_t>(fn_ast)] = fn_index;
  }

  result.functions.reserve(sema.functions.size());
  for (SemaFunction& fn : sema.functions) {
    FunctionScopeInfo info;
    info.ast_id = fn.ast_id;
    info.node = std::move(fn.node);
    info.param_bindings = std::move(fn.param_bindings);
    for (int& param_binding : info.param_bindings) {
      param_binding = result.BindingNode(param_binding);
    }
    if (fn.this_binding >= 0) {
      info.this_binding = result.BindingNode(fn.this_binding);
    }
    // The return-value collector the value-flow graph wires kReturnStmt
    // edges into.
    info.return_binding =
        result.BindingNode(sema_bindings + static_cast<int>(result.functions.size()));
    result.functions.push_back(std::move(info));
  }
  result.classes = std::move(sema.classes);
  result.class_by_name = std::move(sema.class_by_name);
  return result;
}

}  // namespace turnstile
