// Lexical environments (scope chains) for the MiniScript interpreter.
//
// Each environment carries two stores:
//   - `slots`: a flat value frame indexed by the coordinates the resolver
//     (src/lang/resolve.h) annotated onto the AST. All statically resolved
//     locals live here; access is a parent-pointer walk plus a vector index,
//     no hashing.
//   - `bindings`: an atom-keyed name map. Only the global environment and
//     dynamically-evaluated code (hand-built ASTs that never went through
//     ResolveProgram) use it; native modules and the C++ embedding API define
//     and look up globals by name through it.
//
// The two stores are disjoint by construction: resolved code never defines
// names into `bindings` (except implicit globals, which go to the global
// environment), and the dynamic name-chain walk intentionally skips `slots`.
#ifndef TURNSTILE_SRC_INTERP_ENVIRONMENT_H_
#define TURNSTILE_SRC_INTERP_ENVIRONMENT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/atoms.h"
#include "src/interp/value.h"

namespace turnstile {

struct Environment : HeapCell {
  Environment() : HeapCell(Kind::kEnvironment) {}

  std::vector<Value> slots;                    // resolved frame (fixed size)
  std::unordered_map<Atom, Value> bindings;    // name-keyed dynamic/global store
  EnvPtr parent;

  static EnvPtr MakeChild(EnvPtr parent_env, uint32_t frame_size = 0) {
    EnvPtr env = std::make_shared<Environment>();
    env->parent = std::move(parent_env);
    if (frame_size > 0) {
      env->slots.resize(frame_size);
    }
    return env;
  }

  // Declares (or redeclares) a name-keyed binding in this scope.
  void Define(Atom atom, Value value) { bindings[atom] = std::move(value); }
  void Define(const std::string& name, Value value) {
    Define(InternAtom(name), std::move(value));
  }

  // Looks up this environment's name map only (no chain walk). Used for the
  // resolver's kHopsGlobal fast path against the global environment.
  Value* LookupLocal(Atom atom) {
    auto it = bindings.find(atom);
    return it == bindings.end() ? nullptr : &it->second;
  }

  // Looks up `atom` along the scope chain's name maps; returns nullptr when
  // unbound. Slots are invisible here by design (see file comment). Returned
  // pointers stay valid across later Define calls (unordered_map references
  // are stable) — callers may hold one across an RHS evaluation.
  Value* Lookup(Atom atom) {
    for (Environment* env = this; env != nullptr; env = env->parent.get()) {
      auto it = env->bindings.find(atom);
      if (it != env->bindings.end()) {
        return &it->second;
      }
    }
    return nullptr;
  }
  Value* Lookup(const std::string& name) { return Lookup(InternAtom(name)); }

  // Assigns to an existing binding with a single chain walk; returns false
  // when unbound.
  bool Assign(Atom atom, Value value) {
    Value* binding = Lookup(atom);
    if (binding == nullptr) {
      return false;
    }
    *binding = std::move(value);
    return true;
  }
  bool Assign(const std::string& name, Value value) {
    return Assign(InternAtom(name), std::move(value));
  }
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_INTERP_ENVIRONMENT_H_
