#include "src/interp/heap.h"

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/interp/environment.h"
#include "src/interp/value.h"

namespace turnstile {

namespace {

// Edges moved out of live cells by Teardown's sweep. A move drops no
// reference, so no cell is freed (and unlinked) while the list is walked;
// destroying the graveyard afterwards releases everything at once.
class Graveyard {
 public:
  // Only reference types can close a cycle; anything else is dropped now.
  void Take(Value& value) {
    if (value.IdentityKey() != nullptr) {
      values_.push_back(std::move(value));
    }
    value = Value::Undefined();
  }
  void TakeAll(std::vector<Value>& values) {
    for (Value& value : values) {
      Take(value);
    }
    values.clear();
  }
  void TakeAll(std::unordered_map<Atom, Value>& map) {
    for (auto& [key, value] : map) {
      Take(value);
    }
    map.clear();
  }
  template <typename T>
  void Take(std::shared_ptr<T>& pointer) {
    if (pointer != nullptr) {
      pointers_.push_back(std::move(pointer));
    }
  }
  // swap, not move: only swap guarantees the source is left empty.
  template <typename Fn>
  void Take(std::function<Fn>& fn) {
    if (fn) {
      std::function<Fn> taken;
      taken.swap(fn);
      callables_.push_back(std::make_shared<std::function<Fn>>(std::move(taken)));
    }
  }

 private:
  std::vector<Value> values_;
  std::vector<std::shared_ptr<void>> pointers_;   // environments, AST, class metadata
  std::vector<std::shared_ptr<void>> callables_;  // native bodies and set traps
};

void ClearEdges(HeapCell* cell, Graveyard& graveyard) {
  switch (cell->kind()) {
    case HeapCell::Kind::kObject: {
      auto* object = static_cast<Object*>(cell);
      graveyard.TakeAll(object->properties);
      object->insertion_order.clear();
      graveyard.Take(object->class_info);
      graveyard.Take(object->set_trap);
      graveyard.Take(object->box_payload);
      return;
    }
    case HeapCell::Kind::kArray:
      graveyard.TakeAll(static_cast<ArrayObject*>(cell)->elements);
      return;
    case HeapCell::Kind::kFunction: {
      auto* function = static_cast<FunctionObject*>(cell);
      graveyard.Take(function->params);
      graveyard.Take(function->body);
      graveyard.Take(function->closure);
      graveyard.Take(function->bound_this);
      graveyard.Take(function->construct_class);
      graveyard.Take(function->native);
      return;
    }
    case HeapCell::Kind::kEnvironment: {
      auto* env = static_cast<Environment*>(cell);
      graveyard.TakeAll(env->slots);
      graveyard.TakeAll(env->bindings);
      graveyard.Take(env->parent);
      return;
    }
    case HeapCell::Kind::kSentinel:
      return;
  }
}

HeapCell* CellOf(const Value& value) {
  if (value.IsObject()) {
    return value.AsObject().get();
  }
  if (value.IsArray()) {
    return value.AsArray().get();
  }
  if (value.IsFunction()) {
    return value.AsFunction().get();
  }
  return nullptr;
}

}  // namespace

Heap::~Heap() {
  HeapCell* cell = head_.next_;
  while (cell != &head_) {
    HeapCell* next = cell->next_;
    cell->prev_ = cell->next_ = nullptr;
    cell = next;
  }
  head_.prev_ = head_.next_ = nullptr;
}

void Heap::Teardown() {
  Graveyard graveyard;
  for (HeapCell* cell = head_.next_; cell != &head_; cell = cell->next_) {
    ClearEdges(cell, graveyard);
  }
  // ~Graveyard: with every cycle cut, each cell's count falls to zero once
  // its last holder is released, and it frees (and unlinks) itself.
}

void Heap::Adopt(const Value& root) {
  std::vector<HeapCell*> pending;
  auto visit = [&](HeapCell* cell) {
    if (cell != nullptr && !cell->tracked()) {
      cell->LinkAfter(&head_);
      pending.push_back(cell);
    }
  };
  visit(CellOf(root));
  while (!pending.empty()) {
    HeapCell* cell = pending.back();
    pending.pop_back();
    switch (cell->kind()) {
      case HeapCell::Kind::kObject: {
        auto* object = static_cast<Object*>(cell);
        for (const auto& [key, value] : object->properties) {
          visit(CellOf(value));
        }
        visit(CellOf(object->box_payload));
        break;
      }
      case HeapCell::Kind::kArray:
        for (const Value& element : static_cast<ArrayObject*>(cell)->elements) {
          visit(CellOf(element));
        }
        break;
      case HeapCell::Kind::kFunction: {
        auto* function = static_cast<FunctionObject*>(cell);
        visit(CellOf(function->bound_this));
        visit(function->closure.get());
        break;
      }
      case HeapCell::Kind::kEnvironment: {
        auto* env = static_cast<Environment*>(cell);
        for (const Value& value : env->slots) {
          visit(CellOf(value));
        }
        for (const auto& [atom, value] : env->bindings) {
          visit(CellOf(value));
        }
        visit(env->parent.get());
        break;
      }
      case HeapCell::Kind::kSentinel:
        break;
    }
  }
}

size_t Heap::size() const {
  size_t count = 0;
  for (const HeapCell* cell = head_.next_; cell != &head_; cell = cell->next_) {
    ++count;
  }
  return count;
}

}  // namespace turnstile
