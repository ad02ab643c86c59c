// Lowers resolved MiniScript ASTs to register bytecode (see bytecode.h).
//
// Compilation is per function body (and per try/catch/finally block), on
// first execution, *after* any instrumentation rewrite: the instrumentor
// re-resolves the tree it rewrote, re-resolution clears the per-node chunk
// cache (src/lang/resolve.cc), and the injected `__dift.*` calls are ordinary
// member calls by the time they reach the compiler. Compilation never fails:
// every statement and expression kind lowers to bytecode, and node kinds that
// cannot appear where they stand lower to a kRaise of the error the
// reference tree-walker reports.
#ifndef TURNSTILE_SRC_VM_COMPILER_H_
#define TURNSTILE_SRC_VM_COMPILER_H_

#include <span>

#include "src/lang/ast.h"
#include "src/vm/bytecode.h"

namespace turnstile {
namespace vm {

// Compiles (or returns the cached chunk of) a kProgram root: hoisted function
// declarations, top-level statements, kHalt. The cache lives on the node
// (Node::compiled_chunk) and is invalidated by ResolveProgram.
ChunkPtr GetOrCompileProgram(const NodePtr& root);

// Compiles (or returns the cached chunk of) a function body or a try, catch
// or finally block: a kBlockStmt lowers like any block (ending in kHalt); an
// expression body lowers to the expression followed by kHaltValue. The caller
// owns frame setup — Interpreter::CallFunction binds `this`, the self binding
// and parameters; Vm::RunTry builds the catch frame — so the chunk starts with
// its environment current. `entry_decls` are the declarations the caller
// bound in that entry frame on the chunk's behalf: a function's parameters,
// or a catch block's parameter (empty for try and finally blocks, whose
// entry frame belongs to the enclosing chunk). Those only this chunk uses
// are copied into registers by its prologue (see bytecode.h).
ChunkPtr GetOrCompileFunctionBody(const NodePtr& body,
                                  std::span<const NodePtr> entry_decls = {});

// The DIFT-fused compilation flavor (default bytecode tier): recognized
// `__dift.*` call shapes lower onto the labelled opcodes and member accesses
// in sensitive chunks use the kGetPropLabelled/kSetPropLabelled variants.
// Chunks that never mention `__dift` alias the lowered chunk — one compile,
// one cache entry, identical code. Cached in Node::compiled_chunk_fused,
// invalidated by ResolveProgram alongside the lowered cache.
ChunkPtr GetOrCompileProgramFused(const NodePtr& root);
ChunkPtr GetOrCompileFunctionBodyFused(const NodePtr& body,
                                       std::span<const NodePtr> entry_decls = {});

}  // namespace vm
}  // namespace turnstile

#endif  // TURNSTILE_SRC_VM_COMPILER_H_
