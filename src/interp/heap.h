// Per-interpreter heap registry: leak-free teardown of reference cycles.
//
// MiniScript values are reference counted, and ordinary programs build
// cycles that reference counting never frees: a function's closure
// Environment holds the slot that holds the function, an object stores a
// closure that captures the object, `msg.self = msg`. Every Object,
// ArrayObject, FunctionObject and Environment therefore derives from
// HeapCell, whose constructor links the new cell into the thread's current
// Heap (an intrusive doubly-linked list; the destructor unlinks it again).
//
// Each Interpreter owns one Heap and makes it current (Heap::Scope) for the
// duration of its constructor and its public entry points, so everything a
// program or a native allocates while it runs is registered with the
// interpreter that runs it. ~Interpreter calls Teardown(): every live cell's
// outgoing edges (properties, elements, slots, bindings, parent, closure,
// AST, class metadata, native bodies, set traps) are moved into a graveyard
// and released only after the sweep, so every cycle collapses and the
// interpreter's heap is freed.
//
// Cells allocated with no current heap (host-side data built between entry
// points, e.g. a materialized fleet message) stay untracked; Adopt() links
// an injected value's untracked cells into the receiving heap, so a program
// cannot close an unreclaimable cycle through one.
//
// Ownership rule: no value outlives its interpreter. A cell still referenced
// from outside at teardown survives as an empty husk (no properties,
// elements, slots, closure or native body) detached from any heap.
//
// Heaps are confined to one thread like the interpreter that owns them; the
// current-heap pointer is thread-local, so fleet shards never share one.
#ifndef TURNSTILE_SRC_INTERP_HEAP_H_
#define TURNSTILE_SRC_INTERP_HEAP_H_

#include <cstddef>
#include <cstdint>

namespace turnstile {

class Heap;
class Value;

// The heap new cells on this thread register with (null = untracked).
inline thread_local Heap* g_current_heap = nullptr;

// Intrusive registry link embedded in every reference-type object.
class HeapCell {
 public:
  enum class Kind : uint8_t { kObject, kArray, kFunction, kEnvironment, kSentinel };

  explicit HeapCell(Kind kind) : kind_(kind) { LinkIntoCurrent(); }
  // A copy is a new cell (Function.prototype.bind copies a FunctionObject):
  // it registers with the current heap, it does not inherit the original's
  // list position.
  HeapCell(const HeapCell& other) : kind_(other.kind_) { LinkIntoCurrent(); }
  // Assigning an object's contents leaves its registration alone.
  HeapCell& operator=(const HeapCell&) { return *this; }
  ~HeapCell() { Unlink(); }

  Kind kind() const { return kind_; }
  bool tracked() const { return next_ != nullptr; }

 private:
  friend class Heap;

  // The list head of a Heap: never registered anywhere.
  struct SentinelTag {};
  explicit HeapCell(SentinelTag) : kind_(Kind::kSentinel) {}

  inline void LinkIntoCurrent();
  void LinkAfter(HeapCell* at) {
    prev_ = at;
    next_ = at->next_;
    next_->prev_ = this;
    at->next_ = this;
  }
  void Unlink() {
    if (next_ != nullptr) {
      prev_->next_ = next_;
      next_->prev_ = prev_;
      prev_ = next_ = nullptr;
    }
  }

  HeapCell* prev_ = nullptr;
  HeapCell* next_ = nullptr;
  Kind kind_;
};

class Heap {
 public:
  Heap() { head_.prev_ = head_.next_ = &head_; }
  // Detaches the cells that outlived Teardown() (still referenced from
  // outside), so their destructors never touch this list.
  ~Heap();
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // Clears every edge of every registered cell, then releases them.
  void Teardown();

  // Registers every untracked cell reachable from `root` with this heap.
  // Cells of any heap (this one or another) are left where they are.
  void Adopt(const Value& root);

  // Number of registered cells (a linear walk; for tests and diagnostics).
  size_t size() const;

  // Makes `heap` (null = none) the current heap for this scope.
  class Scope {
   public:
    explicit Scope(Heap* heap) : saved_(g_current_heap) { g_current_heap = heap; }
    ~Scope() { g_current_heap = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Heap* saved_;
  };

 private:
  friend class HeapCell;
  HeapCell head_{HeapCell::SentinelTag{}};
};

inline void HeapCell::LinkIntoCurrent() {
  if (g_current_heap != nullptr) {
    LinkAfter(&g_current_heap->head_);
  }
}

}  // namespace turnstile

#endif  // TURNSTILE_SRC_INTERP_HEAP_H_
