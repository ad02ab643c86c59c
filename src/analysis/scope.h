// Scope/symbol resolution for MiniScript programs: binds every identifier use
// to its declaration, enumerates function-like nodes with their parameter
// bindings, `this` pseudo-bindings and return collectors, and records class
// declarations for method resolution.
//
// The resolved structures define the node space of the value-flow graph used
// by the Turnstile Dataflow Analyzer: graph node ids are
//   [0, ast_count)                          — AST nodes (by Node::id)
//   [ast_count, ast_count + binding_count)  — sema's bindings (variables,
//                                             `this`, …), then one return
//                                             collector per function
#ifndef TURNSTILE_SRC_ANALYSIS_SCOPE_H_
#define TURNSTILE_SRC_ANALYSIS_SCOPE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/resolve.h"
#include "src/support/status.h"

namespace turnstile {

struct FunctionScopeInfo {
  int ast_id = -1;                  // the function-like node
  NodePtr node;
  std::vector<int> param_bindings;  // graph node ids, in parameter order
  int this_binding = -1;            // graph node id (-1 for arrows)
  int return_binding = -1;          // graph node id collecting return values
};

// name, ast_id, super_name ("" when no extends) and the class's own
// method table (method name -> function index).
using ClassScopeInfo = SemaClass;

struct ResolvedProgram {
  const Program* program = nullptr;
  int ast_count = 0;
  std::vector<NodePtr> ast_by_id;  // indexed by Node::id
  // Sema's bindings, then one "<return>" collector per function.
  int binding_count = 0;
  // Indexed by AST id, -1 where absent; read them through the accessors below.
  // Identifier/ThisExpr use -> binding graph node id (absent = unresolved,
  // e.g. builtin globals like `console` or framework-injected names).
  std::vector<int> use_to_binding;
  // Declaring node (declarator, function/class declaration, for-of loop
  // variable) -> binding graph node id.
  std::vector<int> decl_binding_by_ast;
  std::vector<int> function_by_ast;  // function-like node -> function index
  std::vector<FunctionScopeInfo> functions;
  std::vector<ClassScopeInfo> classes;
  std::unordered_map<std::string, int> class_by_name;

  int total_nodes() const { return ast_count + binding_count; }
  int BindingNode(int binding_index) const { return ast_count + binding_index; }
  int UseBinding(int ast_id) const { return Lookup(use_to_binding, ast_id); }
  int DeclBinding(int ast_id) const { return Lookup(decl_binding_by_ast, ast_id); }
  int FunctionIndex(int ast_id) const { return Lookup(function_by_ast, ast_id); }

 private:
  static int Lookup(const std::vector<int>& by_ast, int ast_id) {
    return ast_id >= 0 && ast_id < static_cast<int>(by_ast.size())
               ? by_ast[static_cast<size_t>(ast_id)]
               : -1;
  }
};

// Resolves scopes over a parsed program. Never fails on valid parses; unbound
// identifiers simply map to -1 in use_to_binding.
ResolvedProgram ResolveScopes(const Program& program);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_ANALYSIS_SCOPE_H_
