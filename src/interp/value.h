// Runtime value model for the MiniScript interpreter.
//
// MiniScript distinguishes value types (undefined, null, boolean, number,
// string) from reference types (object, array, function) — the distinction
// the paper's DIFT tracker relies on: reference types carry their own label
// slot, while value types must be boxed (§4.4).
#ifndef TURNSTILE_SRC_INTERP_VALUE_H_
#define TURNSTILE_SRC_INTERP_VALUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/interp/heap.h"
#include "src/lang/ast.h"
#include "src/support/status.h"

namespace turnstile {

class Interpreter;
class Value;
struct Object;
struct ArrayObject;
struct FunctionObject;
struct Environment;

using ObjectPtr = std::shared_ptr<Object>;
using ArrayPtr = std::shared_ptr<ArrayObject>;
using FunctionPtr = std::shared_ptr<FunctionObject>;
using EnvPtr = std::shared_ptr<Environment>;

// Signature of a native (C++-implemented) function exposed to MiniScript.
using NativeFn =
    std::function<Result<Value>(Interpreter&, const Value& this_value, std::vector<Value>& args)>;

// Per-thread heap-mutation epoch. Bumped on every object property
// write/delete, array element mutation, DIFT label-slot change, and
// reference-type *destruction* (destruction rather than allocation: a
// recycled address must not inherit a stale cache entry keyed by its
// predecessor's identity pointer, and an address cannot be recycled without
// a free first — so bumping in the destructor covers reuse while letting
// caches survive pure allocation). The DIFT tracker's deep-label memo is
// valid only within one epoch; anything that mutates reachable heap shape
// through a path the tracker cannot observe must call BumpHeapWriteEpoch().
// Thread-local: every app instance (interpreter + tracker) is confined to one
// thread, heap objects never cross instances, and the tracker's memo lives on
// the same thread as the heap it memoizes — so a plain per-thread increment
// keeps the write path free of atomics even with many instances running
// concurrently.
inline thread_local uint64_t g_heap_write_epoch = 0;
inline void BumpHeapWriteEpoch() { ++g_heap_write_epoch; }
inline uint64_t HeapWriteEpoch() { return g_heap_write_epoch; }

// DIFT label slot carried by every reference type (§4.4). Labels live on the
// value itself, so they are reclaimed with it: the tracker keeps no side
// table and pins nothing. `labels` is an interned label-set handle meaningful
// only to the label-set pool whose id is `pool` (0 = never labelled); both
// are opaque at this layer.
struct LabelSlot {
  uint32_t labels = 0;
  uint32_t pool = 0;
};

struct UndefinedTag {
  bool operator==(const UndefinedTag&) const { return true; }
};
struct NullTag {
  bool operator==(const NullTag&) const { return true; }
};

// A MiniScript runtime value. Copying is cheap (reference types share).
class Value {
 public:
  Value() : data_(UndefinedTag{}) {}
  static Value Undefined() { return Value(); }
  static Value Null() {
    Value v;
    v.data_ = NullTag{};
    return v;
  }
  Value(bool b) : data_(b) {}
  Value(double n) : data_(n) {}
  Value(int n) : data_(static_cast<double>(n)) {}
  Value(const char* s) : data_(std::make_shared<std::string>(s)) {}
  Value(std::string s) : data_(std::make_shared<std::string>(std::move(s))) {}
  Value(ObjectPtr o) : data_(std::move(o)) {}
  Value(ArrayPtr a) : data_(std::move(a)) {}
  Value(FunctionPtr f) : data_(std::move(f)) {}

  // Overwrite with a number or boolean in place (no temporary Value).
  void SetNumber(double n) { data_ = n; }
  void SetBool(bool b) { data_ = b; }

  bool IsUndefined() const { return std::holds_alternative<UndefinedTag>(data_); }
  bool IsNull() const { return std::holds_alternative<NullTag>(data_); }
  bool IsNullish() const { return IsUndefined() || IsNull(); }
  bool IsBool() const { return std::holds_alternative<bool>(data_); }
  bool IsNumber() const { return std::holds_alternative<double>(data_); }
  bool IsString() const { return std::holds_alternative<std::shared_ptr<std::string>>(data_); }
  bool IsObject() const { return std::holds_alternative<ObjectPtr>(data_); }
  bool IsArray() const { return std::holds_alternative<ArrayPtr>(data_); }
  bool IsFunction() const { return std::holds_alternative<FunctionPtr>(data_); }
  // Value types have no label slot: the DIFT tracker boxes them.
  bool IsValueType() const { return !IsObject() && !IsArray() && !IsFunction(); }

  bool AsBool() const { return std::get<bool>(data_); }
  double AsNumber() const { return std::get<double>(data_); }
  const std::string& AsString() const { return *std::get<std::shared_ptr<std::string>>(data_); }
  const ObjectPtr& AsObject() const { return std::get<ObjectPtr>(data_); }
  const ArrayPtr& AsArray() const { return std::get<ArrayPtr>(data_); }
  const FunctionPtr& AsFunction() const { return std::get<FunctionPtr>(data_); }

  // The string buffer when this value and `alias` hold the same string and no
  // other Value shares it, else nullptr. Strings are immutable while shared:
  // a caller that owns both holders may append through the result once it
  // has dropped `alias` (the VM's in-place `+=`).
  std::string* StringSharedOnlyWith(const Value& alias) {
    auto* mine = std::get_if<std::shared_ptr<std::string>>(&data_);
    auto* theirs = std::get_if<std::shared_ptr<std::string>>(&alias.data_);
    if (mine == nullptr || theirs == nullptr || *mine != *theirs || mine->use_count() != 2) {
      return nullptr;
    }
    return mine->get();
  }

  // The string buffer when no other Value shares this string, else nullptr
  // (the VM's in-place `+=` on a register local).
  std::string* UniqueString() {
    auto* mine = std::get_if<std::shared_ptr<std::string>>(&data_);
    return mine != nullptr && mine->use_count() == 1 ? mine->get() : nullptr;
  }

  // Stable identity pointer for reference types (nullptr for value types).
  // Keys the DIFT tracker's per-walk visited set, its deep-label memo and
  // its $invoke-labeller registrations.
  const void* IdentityKey() const;

  // The DIFT label slot of a reference type (nullptr for value types).
  LabelSlot* label_slot() const;

  // JS-like coercions.
  bool Truthy() const;
  double ToNumber() const;
  std::string ToDisplayString() const;  // console.log-style rendering
  const char* TypeName() const;         // typeof operator result

  // Strict equality (===). Reference types compare by identity.
  bool StrictEquals(const Value& other) const;

 private:
  std::variant<UndefinedTag, NullTag, bool, double, std::shared_ptr<std::string>, ObjectPtr,
               ArrayPtr, FunctionPtr>
      data_;
};

// Class metadata produced by `class` declarations.
struct ClassInfo {
  std::string name;
  std::unordered_map<std::string, FunctionPtr> methods;  // includes "constructor"
  std::shared_ptr<ClassInfo> superclass;

  // Walks the inheritance chain for a method.
  FunctionPtr FindMethod(const std::string& method_name) const;
};

// A heap object: ordered-insertion property map plus optional class metadata
// and an optional set trap (used by the DIFT tracker to observe dynamic
// property writes, mirroring the paper's use of JS Proxy).
//
// Property keys are interned atoms: the map hashes a uint32_t and the
// insertion-order vector stores 4-byte handles instead of duplicating every
// key string. String-keyed convenience overloads intern on write and do a
// non-inserting table probe on read (a key that was never interned anywhere
// cannot be present).
struct Object : HeapCell {
  Object() : HeapCell(Kind::kObject) {}
  ~Object() { BumpHeapWriteEpoch(); }  // this address may now be recycled

  std::unordered_map<Atom, Value> properties;
  std::vector<Atom> insertion_order;  // keys in first-set order
  std::shared_ptr<ClassInfo> class_info;

  // Proxy trap: when set, property writes are reported to the trap after the
  // underlying operation resolves. The trap must not re-enter the
  // interpreter.
  std::function<void(Object&, const std::string& key, const Value& value)> set_trap;

  LabelSlot label_slot;  // DIFT labels (see LabelSlot)

  // DIFT boxing support: a box carries exactly one value-type payload; its
  // labels live in `label_slot` like any other object's.
  bool is_box = false;
  Value box_payload;

  // Set for objects created by simulated I/O modules ("socket", "mqtt", ...),
  // used for diagnostics.
  std::string debug_tag;

  bool Has(Atom key) const { return properties.count(key) > 0; }
  bool Has(const std::string& key) const {
    Atom atom = AtomTable::Global().Find(key);
    return atom != kAtomInvalid && Has(atom);
  }
  Value Get(Atom key) const {
    auto it = properties.find(key);
    return it == properties.end() ? Value::Undefined() : it->second;
  }
  Value Get(const std::string& key) const {
    Atom atom = AtomTable::Global().Find(key);
    return atom == kAtomInvalid ? Value::Undefined() : Get(atom);
  }
  void Set(Atom key, Value value) {
    BumpHeapWriteEpoch();
    auto [it, inserted] = properties.insert_or_assign(key, std::move(value));
    if (inserted) {
      insertion_order.push_back(key);
    }
    if (set_trap) {
      set_trap(*this, AtomName(key), it->second);
    }
  }
  void Set(const std::string& key, Value value) {
    Set(InternAtom(key), std::move(value));
  }
  void Delete(Atom key) {
    BumpHeapWriteEpoch();
    if (properties.erase(key) > 0) {
      for (auto it = insertion_order.begin(); it != insertion_order.end(); ++it) {
        if (*it == key) {
          insertion_order.erase(it);
          break;
        }
      }
    }
  }
  void Delete(const std::string& key) {
    Atom atom = AtomTable::Global().Find(key);
    if (atom != kAtomInvalid) {
      Delete(atom);
    }
  }
};

// A JS-style array with identity.
struct ArrayObject : HeapCell {
  ArrayObject() : HeapCell(Kind::kArray) {}
  ~ArrayObject() { BumpHeapWriteEpoch(); }  // this address may now be recycled
  std::vector<Value> elements;
  LabelSlot label_slot;  // DIFT labels (see LabelSlot)
};

// A callable: either a MiniScript closure or a native function.
struct FunctionObject : HeapCell {
  FunctionObject() : HeapCell(Kind::kFunction) {}
  ~FunctionObject() { BumpHeapWriteEpoch(); }  // this address may now be recycled
  std::string name;          // for diagnostics
  NodePtr params;            // kParams (closures only)
  NodePtr body;              // kBlockStmt or expression (closures only)
  EnvPtr closure;            // captured environment (closures only)
  // Resolution annotations copied from the function-like node (resolve.h):
  // frame_size > 0 means the call frame is slot-indexed (`this` at slot 0 for
  // non-arrows, parameters at their annotated slots). 0 means the dynamic
  // name-keyed calling convention (hand-built ASTs, resolved empty arrows —
  // both conventions coincide at zero slots).
  uint32_t frame_size = 0;
  int32_t self_slot = -1;    // named function expressions bind themselves here
  bool is_arrow = false;     // arrows inherit `this` from the closure
  bool is_async = false;     // async functions wrap returns in a promise
  Value bound_this;          // captured `this` for arrows / bound methods
  bool has_bound_this = false;
  std::shared_ptr<ClassInfo> construct_class;  // set for class constructors
  NativeFn native;           // set for native functions
  // True for natives that write to the outside world (fs.writeFile,
  // socket.write, ...). The DIFT tracker unwraps boxed arguments only for
  // these, matching the paper's "unwrapped upon writing to a sink".
  bool is_io_sink = false;
  LabelSlot label_slot;  // DIFT labels (see LabelSlot)

  bool IsNative() const { return static_cast<bool>(native); }
};

inline LabelSlot* Value::label_slot() const {
  if (IsObject()) {
    return &AsObject()->label_slot;
  }
  if (IsArray()) {
    return &AsArray()->label_slot;
  }
  if (IsFunction()) {
    return &AsFunction()->label_slot;
  }
  return nullptr;
}

// Helpers.
ObjectPtr MakeObject();
ArrayPtr MakeArray(std::vector<Value> elements = {});
FunctionPtr MakeNativeFunction(std::string name, NativeFn fn);

// True when `value` is a DIFT box object.
bool IsBox(const Value& value);
// Unwraps one layer of boxing, or returns `value` unchanged.
Value Unbox(const Value& value);
// Fully unwraps nested boxes.
Value UnboxDeep(const Value& value);

// Serializing a Value to Json (JSON.stringify, the fleet wire) writes values
// nested deeper than this as null, so a cyclic object graph terminates.
inline constexpr int kMaxSerializeDepth = 32;

}  // namespace turnstile

#endif  // TURNSTILE_SRC_INTERP_VALUE_H_
