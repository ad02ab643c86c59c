// Built-in globals and value-type method tables for the MiniScript runtime.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "src/interp/interp.h"
#include "src/support/json.h"
#include "src/support/json_parser.h"
#include "src/support/strings.h"

namespace turnstile {

namespace {

Value Arg(const std::vector<Value>& args, size_t i) {
  return i < args.size() ? args[i] : Value::Undefined();
}

// --- JSON bridge -------------------------------------------------------------

Json ValueToJson(const Value& value_in, int depth = 0) {
  Value value = UnboxDeep(value_in);
  if (depth > kMaxSerializeDepth) {
    return Json(nullptr);
  }
  if (value.IsBool()) {
    return Json(value.AsBool());
  }
  if (value.IsNumber()) {
    return Json(value.AsNumber());
  }
  if (value.IsString()) {
    return Json(value.AsString());
  }
  if (value.IsArray()) {
    Json out = Json::Array();
    for (const Value& element : value.AsArray()->elements) {
      out.Append(ValueToJson(element, depth + 1));
    }
    return out;
  }
  if (value.IsObject()) {
    Json out = Json::Object();
    JsonObject& fields = out.object_items();
    const ObjectPtr& obj = value.AsObject();
    fields.reserve(obj->insertion_order.size());
    // insertion_order never repeats a key, so fields append without Set's
    // duplicate scan.
    for (Atom atom : obj->insertion_order) {
      auto it = obj->properties.find(atom);
      const std::string& key = AtomName(atom);
      if (it != obj->properties.end() && !it->second.IsFunction() &&
          !StartsWith(key, "__")) {
        fields.emplace_back(key, ValueToJson(it->second, depth + 1));
      }
    }
    return out;
  }
  return Json(nullptr);
}

// Builds MiniScript values straight from JsonParser. Object::Set already
// gives a repeated key its first position and last value.
struct ValueTreeBuilder {
  using Node = Value;
  using Array = std::vector<Value>;
  using Object = ObjectPtr;

  Value Null() { return Value::Null(); }
  Value Bool(bool value) { return Value(value); }
  Value Number(double value) { return Value(value); }
  Value String(std::string value) { return Value(std::move(value)); }

  std::vector<Value> BeginArray() { return {}; }
  void Append(std::vector<Value>& items, Value item) { items.push_back(std::move(item)); }
  Value EndArray(std::vector<Value> items) { return Value(MakeArray(std::move(items))); }

  ObjectPtr BeginObject() { return MakeObject(); }
  void Put(ObjectPtr& object, std::string key, Value value) {
    object->Set(InternAtom(key), std::move(value));
  }
  Value EndObject(ObjectPtr object) { return Value(std::move(object)); }
};

// --- promises ----------------------------------------------------------------

// Creates a promise object: { __promiseState, __promiseValue, then, catch }.
// Settlement callbacks run as microtasks. One level of then-chaining returns
// a new promise resolved with the callback's return value (chained promises
// beyond that are out of scope, as in the paper).
ObjectPtr MakePromiseObject(Interpreter& interp);

void SettlePromise(Interpreter& interp, const ObjectPtr& promise, const std::string& state,
                   Value value) {
  if (promise->Get("__promiseState").ToDisplayString() != "pending") {
    return;  // already settled
  }
  promise->Set("__promiseState", Value(state));
  promise->Set("__promiseValue", value);
  Value callbacks = promise->Get(state == "fulfilled" ? "__onFulfilled" : "__onRejected");
  if (callbacks.IsArray()) {
    for (const Value& cb : callbacks.AsArray()->elements) {
      if (cb.IsFunction()) {
        interp.ScheduleMicrotask(cb.AsFunction(), {value});
      }
    }
  }
}

ObjectPtr MakePromiseObject(Interpreter& interp) {
  ObjectPtr promise = MakeObject();
  promise->debug_tag = "promise";
  promise->Set("__promiseState", Value("pending"));
  promise->Set("__promiseValue", Value::Undefined());
  promise->Set("__onFulfilled", Value(MakeArray()));
  promise->Set("__onRejected", Value(MakeArray()));
  std::weak_ptr<Object> weak = promise;

  promise->Set("then", Value(MakeNativeFunction(
      "then", [weak](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
        ObjectPtr self = weak.lock();
        if (self == nullptr) {
          return Value::Undefined();
        }
        Value on_fulfilled = Arg(args, 0);
        ObjectPtr next = MakePromiseObject(in);
        if (!on_fulfilled.IsFunction()) {
          return Value(next);
        }
        // Wrapper resolving `next` with the callback result. `next` is held
        // strongly: the wrapper lives in the *upstream* promise's callback
        // list, so this forms a chain, not a cycle (unlike the `then`
        // property itself, which must capture its own promise weakly).
        FunctionPtr handler = on_fulfilled.AsFunction();
        FunctionPtr wrapper = MakeNativeFunction(
            "thenHandler",
            [handler, next](Interpreter& in2, const Value&,
                            std::vector<Value>& inner_args) -> Result<Value> {
              TURNSTILE_ASSIGN_OR_RETURN(result,
                                         in2.CallFunction(handler, Value::Undefined(),
                                                          inner_args));
              SettlePromise(in2, next, "fulfilled", result);
              return Value::Undefined();
            });
        std::string state = self->Get("__promiseState").ToDisplayString();
        if (state == "fulfilled") {
          in.ScheduleMicrotask(wrapper, {self->Get("__promiseValue")});
        } else if (state == "pending") {
          self->Get("__onFulfilled").AsArray()->elements.push_back(Value(wrapper));
        }
        return Value(next);
      })));

  promise->Set("catch", Value(MakeNativeFunction(
      "catch", [weak](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
        ObjectPtr self = weak.lock();
        if (self == nullptr) {
          return Value::Undefined();
        }
        Value on_rejected = Arg(args, 0);
        if (on_rejected.IsFunction()) {
          std::string state = self->Get("__promiseState").ToDisplayString();
          if (state == "rejected") {
            in.ScheduleMicrotask(on_rejected.AsFunction(), {self->Get("__promiseValue")});
          } else if (state == "pending") {
            self->Get("__onRejected").AsArray()->elements.push_back(on_rejected);
          }
        }
        return Value(self);
      })));
  return promise;
}

}  // namespace

// Creates a promise that is already fulfilled with `value` (used by native
// async APIs such as the simulated Deepstack client).
Value MakeResolvedPromise(Interpreter& interp, Value value) {
  ObjectPtr promise = MakePromiseObject(interp);
  SettlePromise(interp, promise, "fulfilled", std::move(value));
  return Value(promise);
}

// --- array methods -----------------------------------------------------------

namespace {

Result<Value> RequireArrayThis(const Value& this_value, const char* method) {
  Value v = Unbox(this_value);
  if (!v.IsArray()) {
    return Interpreter::TypeError(std::string(method) + " called on a non-array");
  }
  return v;
}

std::unordered_map<std::string, FunctionPtr> BuildArrayMethods() {
  std::unordered_map<std::string, FunctionPtr> methods;
  auto add = [&methods](const std::string& name, NativeFn fn) {
    methods[name] = MakeNativeFunction("Array." + name, std::move(fn));
  };

  add("push", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "push"));
    BumpHeapWriteEpoch();
    for (Value& arg : args) {
      array.AsArray()->elements.push_back(std::move(arg));
    }
    return Value(static_cast<double>(array.AsArray()->elements.size()));
  });
  add("pop", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "pop"));
    BumpHeapWriteEpoch();
    auto& elements = array.AsArray()->elements;
    if (elements.empty()) {
      return Value::Undefined();
    }
    Value last = elements.back();
    elements.pop_back();
    return last;
  });
  add("shift", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "shift"));
    BumpHeapWriteEpoch();
    auto& elements = array.AsArray()->elements;
    if (elements.empty()) {
      return Value::Undefined();
    }
    Value first = elements.front();
    elements.erase(elements.begin());
    return first;
  });
  add("unshift", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "unshift"));
    BumpHeapWriteEpoch();
    auto& elements = array.AsArray()->elements;
    elements.insert(elements.begin(), args.begin(), args.end());
    return Value(static_cast<double>(elements.size()));
  });
  add("indexOf", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "indexOf"));
    const auto& elements = array.AsArray()->elements;
    Value target = Arg(args, 0);
    for (size_t i = 0; i < elements.size(); ++i) {
      if (Unbox(elements[i]).StrictEquals(Unbox(target))) {
        return Value(static_cast<double>(i));
      }
    }
    return Value(-1.0);
  });
  add("includes", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "includes"));
    for (const Value& element : array.AsArray()->elements) {
      if (Unbox(element).StrictEquals(Unbox(Arg(args, 0)))) {
        return Value(true);
      }
    }
    return Value(false);
  });
  add("join", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "join"));
    std::string sep = Arg(args, 0).IsUndefined() ? "," : Unbox(Arg(args, 0)).ToDisplayString();
    std::string out;
    const auto& elements = array.AsArray()->elements;
    for (size_t i = 0; i < elements.size(); ++i) {
      if (i > 0) {
        out += sep;
      }
      out += Unbox(elements[i]).ToDisplayString();
    }
    return Value(out);
  });
  add("slice", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "slice"));
    const auto& elements = array.AsArray()->elements;
    long size = static_cast<long>(elements.size());
    long begin = args.empty() ? 0 : static_cast<long>(Unbox(args[0]).ToNumber());
    long end = args.size() < 2 ? size : static_cast<long>(Unbox(args[1]).ToNumber());
    if (begin < 0) {
      begin += size;
    }
    if (end < 0) {
      end += size;
    }
    begin = std::clamp(begin, 0L, size);
    end = std::clamp(end, begin, size);
    return Value(MakeArray({elements.begin() + begin, elements.begin() + end}));
  });
  add("concat", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "concat"));
    std::vector<Value> out = array.AsArray()->elements;
    for (const Value& arg : args) {
      Value unboxed = Unbox(arg);
      if (unboxed.IsArray()) {
        const auto& more = unboxed.AsArray()->elements;
        out.insert(out.end(), more.begin(), more.end());
      } else {
        out.push_back(arg);
      }
    }
    return Value(MakeArray(std::move(out)));
  });
  add("map", [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "map"));
    Value fn = Unbox(Arg(args, 0));
    if (!fn.IsFunction()) {
      return Interpreter::TypeError("map requires a function");
    }
    std::vector<Value> out;
    const auto elements = array.AsArray()->elements;
    for (size_t i = 0; i < elements.size(); ++i) {
      TURNSTILE_ASSIGN_OR_RETURN(
          mapped, in.CallFunction(fn.AsFunction(), Value::Undefined(),
                                  {elements[i], Value(static_cast<double>(i))}));
      out.push_back(std::move(mapped));
    }
    return Value(MakeArray(std::move(out)));
  });
  add("filter", [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "filter"));
    Value fn = Unbox(Arg(args, 0));
    if (!fn.IsFunction()) {
      return Interpreter::TypeError("filter requires a function");
    }
    std::vector<Value> out;
    const auto elements = array.AsArray()->elements;
    for (size_t i = 0; i < elements.size(); ++i) {
      TURNSTILE_ASSIGN_OR_RETURN(
          keep, in.CallFunction(fn.AsFunction(), Value::Undefined(),
                                {elements[i], Value(static_cast<double>(i))}));
      if (keep.Truthy()) {
        out.push_back(elements[i]);
      }
    }
    return Value(MakeArray(std::move(out)));
  });
  add("forEach", [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "forEach"));
    Value fn = Unbox(Arg(args, 0));
    if (!fn.IsFunction()) {
      return Interpreter::TypeError("forEach requires a function");
    }
    const auto elements = array.AsArray()->elements;
    for (size_t i = 0; i < elements.size(); ++i) {
      TURNSTILE_ASSIGN_OR_RETURN(
          unused, in.CallFunction(fn.AsFunction(), Value::Undefined(),
                                  {elements[i], Value(static_cast<double>(i))}));
      (void)unused;
    }
    return Value::Undefined();
  });
  add("reduce", [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "reduce"));
    Value fn = Unbox(Arg(args, 0));
    if (!fn.IsFunction()) {
      return Interpreter::TypeError("reduce requires a function");
    }
    const auto elements = array.AsArray()->elements;
    size_t start = 0;
    Value acc;
    if (args.size() >= 2) {
      acc = args[1];
    } else {
      if (elements.empty()) {
        return Interpreter::TypeError("reduce of empty array with no initial value");
      }
      acc = elements[0];
      start = 1;
    }
    for (size_t i = start; i < elements.size(); ++i) {
      TURNSTILE_ASSIGN_OR_RETURN(
          next, in.CallFunction(fn.AsFunction(), Value::Undefined(),
                                {acc, elements[i], Value(static_cast<double>(i))}));
      acc = std::move(next);
    }
    return acc;
  });
  add("find", [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "find"));
    Value fn = Unbox(Arg(args, 0));
    if (!fn.IsFunction()) {
      return Interpreter::TypeError("find requires a function");
    }
    for (const Value& element : array.AsArray()->elements) {
      TURNSTILE_ASSIGN_OR_RETURN(hit,
                                 in.CallFunction(fn.AsFunction(), Value::Undefined(), {element}));
      if (hit.Truthy()) {
        return element;
      }
    }
    return Value::Undefined();
  });
  add("some", [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "some"));
    Value fn = Unbox(Arg(args, 0));
    if (!fn.IsFunction()) {
      return Interpreter::TypeError("some requires a function");
    }
    for (const Value& element : array.AsArray()->elements) {
      TURNSTILE_ASSIGN_OR_RETURN(hit,
                                 in.CallFunction(fn.AsFunction(), Value::Undefined(), {element}));
      if (hit.Truthy()) {
        return Value(true);
      }
    }
    return Value(false);
  });
  add("reverse", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "reverse"));
    std::reverse(array.AsArray()->elements.begin(), array.AsArray()->elements.end());
    return array;
  });
  add("sort", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(array, RequireArrayThis(self, "sort"));
    // Default JS sort: by string representation.
    std::stable_sort(array.AsArray()->elements.begin(), array.AsArray()->elements.end(),
                     [](const Value& a, const Value& b) {
                       return Unbox(a).ToDisplayString() < Unbox(b).ToDisplayString();
                     });
    return array;
  });
  return methods;
}

// --- string methods ----------------------------------------------------------

Result<Value> RequireStringThis(const Value& this_value, const char* method) {
  Value v = UnboxDeep(this_value);
  if (!v.IsString()) {
    return Interpreter::TypeError(std::string(method) + " called on a non-string");
  }
  return v;
}

std::unordered_map<std::string, FunctionPtr> BuildStringMethods() {
  std::unordered_map<std::string, FunctionPtr> methods;
  auto add = [&methods](const std::string& name, NativeFn fn) {
    methods[name] = MakeNativeFunction("String." + name, std::move(fn));
  };

  add("split", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "split"));
    std::string sep = Unbox(Arg(args, 0)).ToDisplayString();
    std::vector<Value> out;
    if (Arg(args, 0).IsUndefined()) {
      out.push_back(str);
    } else if (sep.empty()) {
      for (char c : str.AsString()) {
        out.push_back(Value(std::string(1, c)));
      }
    } else {
      size_t start = 0;
      const std::string& s = str.AsString();
      while (true) {
        size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
          out.push_back(Value(s.substr(start)));
          break;
        }
        out.push_back(Value(s.substr(start, pos - start)));
        start = pos + sep.size();
      }
    }
    return Value(MakeArray(std::move(out)));
  });
  add("toUpperCase", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "toUpperCase"));
    std::string out = str.AsString();
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return Value(out);
  });
  add("toLowerCase", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "toLowerCase"));
    std::string out = str.AsString();
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return Value(out);
  });
  add("indexOf", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "indexOf"));
    size_t pos = str.AsString().find(Unbox(Arg(args, 0)).ToDisplayString());
    return Value(pos == std::string::npos ? -1.0 : static_cast<double>(pos));
  });
  add("includes", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "includes"));
    return Value(Contains(str.AsString(), Unbox(Arg(args, 0)).ToDisplayString()));
  });
  add("startsWith", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "startsWith"));
    return Value(StartsWith(str.AsString(), Unbox(Arg(args, 0)).ToDisplayString()));
  });
  add("endsWith", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "endsWith"));
    return Value(EndsWith(str.AsString(), Unbox(Arg(args, 0)).ToDisplayString()));
  });
  add("substring", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "substring"));
    const std::string& s = str.AsString();
    long size = static_cast<long>(s.size());
    long begin = std::clamp(static_cast<long>(Unbox(Arg(args, 0)).ToNumber()), 0L, size);
    long end = args.size() < 2 ? size
                               : std::clamp(static_cast<long>(Unbox(args[1]).ToNumber()), 0L, size);
    if (begin > end) {
      std::swap(begin, end);
    }
    return Value(s.substr(static_cast<size_t>(begin), static_cast<size_t>(end - begin)));
  });
  add("slice", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "slice"));
    const std::string& s = str.AsString();
    long size = static_cast<long>(s.size());
    long begin = args.empty() ? 0 : static_cast<long>(Unbox(args[0]).ToNumber());
    long end = args.size() < 2 ? size : static_cast<long>(Unbox(args[1]).ToNumber());
    if (begin < 0) {
      begin += size;
    }
    if (end < 0) {
      end += size;
    }
    begin = std::clamp(begin, 0L, size);
    end = std::clamp(end, begin, size);
    return Value(s.substr(static_cast<size_t>(begin), static_cast<size_t>(end - begin)));
  });
  add("trim", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "trim"));
    return Value(std::string(StrTrim(str.AsString())));
  });
  add("replace", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "replace"));
    std::string from = Unbox(Arg(args, 0)).ToDisplayString();
    std::string to = Unbox(Arg(args, 1)).ToDisplayString();
    std::string s = str.AsString();
    size_t pos = s.find(from);
    if (pos != std::string::npos && !from.empty()) {
      s.replace(pos, from.size(), to);
    }
    return Value(s);
  });
  add("charAt", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "charAt"));
    size_t i = static_cast<size_t>(Unbox(Arg(args, 0)).ToNumber());
    const std::string& s = str.AsString();
    return Value(i < s.size() ? std::string(1, s[i]) : std::string());
  });
  add("charCodeAt", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "charCodeAt"));
    size_t i = static_cast<size_t>(Unbox(Arg(args, 0)).ToNumber());
    const std::string& s = str.AsString();
    if (i >= s.size()) {
      return Value(std::nan(""));
    }
    return Value(static_cast<double>(static_cast<unsigned char>(s[i])));
  });
  add("padStart", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
    TURNSTILE_ASSIGN_OR_RETURN(str, RequireStringThis(self, "padStart"));
    size_t width = static_cast<size_t>(Unbox(Arg(args, 0)).ToNumber());
    std::string pad = args.size() < 2 ? " " : Unbox(args[1]).ToDisplayString();
    std::string s = str.AsString();
    while (s.size() < width && !pad.empty()) {
      s.insert(0, pad.substr(0, std::min(pad.size(), width - s.size())));
    }
    return Value(s);
  });
  add("toString", [](Interpreter&, const Value& self, std::vector<Value>&) -> Result<Value> {
    return Value(UnboxDeep(self).ToDisplayString());
  });
  return methods;
}

std::unordered_map<std::string, FunctionPtr> BuildFunctionMethods() {
  std::unordered_map<std::string, FunctionPtr> methods;
  methods["call"] = MakeNativeFunction(
      "Function.call",
      [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
        Value fn = Unbox(self);
        if (!fn.IsFunction()) {
          return Interpreter::TypeError("call target is not a function");
        }
        Value this_arg = Arg(args, 0);
        std::vector<Value> rest(args.begin() + (args.empty() ? 0 : 1), args.end());
        return in.CallFunction(fn.AsFunction(), this_arg, std::move(rest));
      });
  methods["apply"] = MakeNativeFunction(
      "Function.apply",
      [](Interpreter& in, const Value& self, std::vector<Value>& args) -> Result<Value> {
        Value fn = Unbox(self);
        if (!fn.IsFunction()) {
          return Interpreter::TypeError("apply target is not a function");
        }
        Value this_arg = Arg(args, 0);
        std::vector<Value> call_args;
        Value arg_array = Unbox(Arg(args, 1));
        if (arg_array.IsArray()) {
          call_args = arg_array.AsArray()->elements;
        }
        return in.CallFunction(fn.AsFunction(), this_arg, std::move(call_args));
      });
  methods["bind"] = MakeNativeFunction(
      "Function.bind",
      [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
        Value fn = Unbox(self);
        if (!fn.IsFunction()) {
          return Interpreter::TypeError("bind target is not a function");
        }
        BumpHeapWriteEpoch();
        FunctionPtr bound = std::make_shared<FunctionObject>(*fn.AsFunction());
        bound->bound_this = Arg(args, 0);
        bound->has_bound_this = true;
        return Value(bound);
      });
  return methods;
}

// The method tables are process-wide and shared by every interpreter, so
// they are built untracked: they must not belong to (and be torn down with)
// the heap of whichever interpreter first asks for them.
using MethodTable = std::unordered_map<std::string, FunctionPtr>;
const MethodTable* BuildUntracked(MethodTable (*build)()) {
  Heap::Scope untracked(nullptr);
  return new MethodTable(build());
}

}  // namespace

FunctionPtr GetArrayMethod(const std::string& name) {
  static const MethodTable* kMethods = BuildUntracked(BuildArrayMethods);
  auto it = kMethods->find(name);
  return it == kMethods->end() ? nullptr : it->second;
}

FunctionPtr GetStringMethod(const std::string& name) {
  static const MethodTable* kMethods = BuildUntracked(BuildStringMethods);
  auto it = kMethods->find(name);
  return it == kMethods->end() ? nullptr : it->second;
}

FunctionPtr GetFunctionMethod(const std::string& name) {
  static const MethodTable* kMethods = BuildUntracked(BuildFunctionMethods);
  auto it = kMethods->find(name);
  return it == kMethods->end() ? nullptr : it->second;
}

// --- globals -----------------------------------------------------------------

void Interpreter::InstallBuiltins() {
  // console
  ObjectPtr console = MakeObject();
  console->debug_tag = "console";
  auto log_fn = [](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
    std::string line;
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) {
        line += " ";
      }
      line += UnboxDeep(args[i]).ToDisplayString();
    }
    in.io_world().Record(in.VirtualNow(), "console", "log", "", line);
    return Value::Undefined();
  };
  console->Set("log", Value(MakeNativeFunction("console.log", log_fn)));
  console->Set("error", Value(MakeNativeFunction("console.error", log_fn)));
  console->Set("warn", Value(MakeNativeFunction("console.warn", log_fn)));
  for (const char* method : {"log", "error", "warn"}) {
    console->Get(method).AsFunction()->is_io_sink = true;
  }
  DefineGlobal("console", Value(console));

  // Math
  ObjectPtr math = MakeObject();
  auto math1 = [](double (*fn)(double)) {
    return [fn](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
      return Value(fn(Unbox(Arg(args, 0)).ToNumber()));
    };
  };
  math->Set("floor", Value(MakeNativeFunction("Math.floor", math1(std::floor))));
  math->Set("ceil", Value(MakeNativeFunction("Math.ceil", math1(std::ceil))));
  math->Set("round", Value(MakeNativeFunction("Math.round", math1(std::round))));
  math->Set("abs", Value(MakeNativeFunction("Math.abs", math1(std::fabs))));
  math->Set("sqrt", Value(MakeNativeFunction("Math.sqrt", math1(std::sqrt))));
  math->Set("log", Value(MakeNativeFunction("Math.log", math1(std::log))));
  math->Set("exp", Value(MakeNativeFunction("Math.exp", math1(std::exp))));
  math->Set("min", Value(MakeNativeFunction(
      "Math.min", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        double best = std::numeric_limits<double>::infinity();
        for (const Value& arg : args) {
          best = std::min(best, Unbox(arg).ToNumber());
        }
        return Value(best);
      })));
  math->Set("max", Value(MakeNativeFunction(
      "Math.max", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        double best = -std::numeric_limits<double>::infinity();
        for (const Value& arg : args) {
          best = std::max(best, Unbox(arg).ToNumber());
        }
        return Value(best);
      })));
  math->Set("pow", Value(MakeNativeFunction(
      "Math.pow", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(std::pow(Unbox(Arg(args, 0)).ToNumber(), Unbox(Arg(args, 1)).ToNumber()));
      })));
  math->Set("random", Value(MakeNativeFunction(
      "Math.random", [](Interpreter& in, const Value&, std::vector<Value>&) -> Result<Value> {
        return Value(in.rng().NextDouble());  // deterministic per interpreter
      })));
  DefineGlobal("Math", Value(math));

  // JSON
  ObjectPtr json = MakeObject();
  json->Set("stringify", Value(MakeNativeFunction(
      "JSON.stringify", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(ValueToJson(Arg(args, 0)).Dump());
      })));
  json->Set("parse", Value(MakeNativeFunction(
      "JSON.parse", [](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
        std::string text = UnboxDeep(Arg(args, 0)).ToDisplayString();
        ValueTreeBuilder builder;
        Result<Value> parsed = JsonParser<ValueTreeBuilder>(text, builder).Parse();
        if (!parsed.ok()) {
          in.SetPendingThrow(in.MakeError("JSON.parse: " + parsed.status().message()));
          return RuntimeError("uncaught exception: JSON.parse failure");
        }
        return std::move(parsed).value();
      })));
  DefineGlobal("JSON", Value(json));

  // Object
  ObjectPtr object_ns = MakeObject();
  object_ns->Set("keys", Value(MakeNativeFunction(
      "Object.keys", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value target = Unbox(Arg(args, 0));
        std::vector<Value> keys;
        if (target.IsObject()) {
          for (Atom atom : target.AsObject()->insertion_order) {
            const std::string& key = AtomName(atom);
            if (target.AsObject()->Has(atom) && !StartsWith(key, "__")) {
              keys.push_back(Value(key));
            }
          }
        }
        return Value(MakeArray(std::move(keys)));
      })));
  object_ns->Set("values", Value(MakeNativeFunction(
      "Object.values", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value target = Unbox(Arg(args, 0));
        std::vector<Value> values;
        if (target.IsObject()) {
          for (Atom atom : target.AsObject()->insertion_order) {
            if (target.AsObject()->Has(atom) && !StartsWith(AtomName(atom), "__")) {
              values.push_back(target.AsObject()->Get(atom));
            }
          }
        }
        return Value(MakeArray(std::move(values)));
      })));
  object_ns->Set("assign", Value(MakeNativeFunction(
      "Object.assign", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value target = Unbox(Arg(args, 0));
        if (!target.IsObject()) {
          return Interpreter::TypeError("Object.assign target must be an object");
        }
        for (size_t i = 1; i < args.size(); ++i) {
          Value source = Unbox(args[i]);
          if (source.IsObject()) {
            // Copy the key list first: Set on the target may fire proxy traps,
            // and self-assign would otherwise mutate the list being iterated.
            std::vector<Atom> source_keys = source.AsObject()->insertion_order;
            for (Atom atom : source_keys) {
              if (source.AsObject()->Has(atom)) {
                target.AsObject()->Set(atom, source.AsObject()->Get(atom));
              }
            }
          }
        }
        return target;
      })));
  DefineGlobal("Object", Value(object_ns));

  // Array namespace
  ObjectPtr array_ns = MakeObject();
  array_ns->Set("isArray", Value(MakeNativeFunction(
      "Array.isArray", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(Unbox(Arg(args, 0)).IsArray());
      })));
  DefineGlobal("Array", Value(array_ns));

  // Conversions
  DefineGlobal("parseInt", Value(MakeNativeFunction(
      "parseInt", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        std::string s = UnboxDeep(Arg(args, 0)).ToDisplayString();
        char* end = nullptr;
        long base = args.size() > 1 ? static_cast<long>(Unbox(args[1]).ToNumber()) : 10;
        long v = std::strtol(s.c_str(), &end, static_cast<int>(base));
        if (end == s.c_str()) {
          return Value(std::nan(""));
        }
        return Value(static_cast<double>(v));
      })));
  DefineGlobal("parseFloat", Value(MakeNativeFunction(
      "parseFloat", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        std::string s = UnboxDeep(Arg(args, 0)).ToDisplayString();
        char* end = nullptr;
        double v = std::strtod(s.c_str(), &end);
        if (end == s.c_str()) {
          return Value(std::nan(""));
        }
        return Value(v);
      })));
  DefineGlobal("String", Value(MakeNativeFunction(
      "String", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(UnboxDeep(Arg(args, 0)).ToDisplayString());
      })));
  DefineGlobal("Number", Value(MakeNativeFunction(
      "Number", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(UnboxDeep(Arg(args, 0)).ToNumber());
      })));
  DefineGlobal("Boolean", Value(MakeNativeFunction(
      "Boolean", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(UnboxDeep(Arg(args, 0)).Truthy());
      })));
  DefineGlobal("isNaN", Value(MakeNativeFunction(
      "isNaN", [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        return Value(static_cast<bool>(std::isnan(UnboxDeep(Arg(args, 0)).ToNumber())));
      })));

  // Error constructor (used with `new Error("...")` or plain call).
  DefineGlobal("Error", Value(MakeNativeFunction(
      "Error", [](Interpreter&, const Value& self, std::vector<Value>& args) -> Result<Value> {
        if (self.IsObject()) {
          self.AsObject()->Set("message", Value(UnboxDeep(Arg(args, 0)).ToDisplayString()));
          self.AsObject()->debug_tag = "error";
          return self;
        }
        ObjectPtr err = MakeObject();
        err->Set("message", Value(UnboxDeep(Arg(args, 0)).ToDisplayString()));
        err->debug_tag = "error";
        return Value(err);
      })));

  // Date
  ObjectPtr date = MakeObject();
  date->Set("now", Value(MakeNativeFunction(
      "Date.now", [](Interpreter& in, const Value&, std::vector<Value>&) -> Result<Value> {
        return Value(in.VirtualNow() * 1000.0);  // virtual milliseconds
      })));
  DefineGlobal("Date", Value(date));

  // Promise
  DefineGlobal("Promise", Value(MakeNativeFunction(
      "Promise", [](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value executor = Unbox(Arg(args, 0));
        ObjectPtr promise = MakePromiseObject(in);
        if (executor.IsFunction()) {
          std::weak_ptr<Object> weak = promise;
          FunctionPtr resolve = MakeNativeFunction(
              "resolve",
              [weak](Interpreter& in2, const Value&, std::vector<Value>& a) -> Result<Value> {
                ObjectPtr p = weak.lock();
                if (p != nullptr) {
                  SettlePromise(in2, p, "fulfilled", Arg(a, 0));
                }
                return Value::Undefined();
              });
          FunctionPtr reject = MakeNativeFunction(
              "reject",
              [weak](Interpreter& in2, const Value&, std::vector<Value>& a) -> Result<Value> {
                ObjectPtr p = weak.lock();
                if (p != nullptr) {
                  SettlePromise(in2, p, "rejected", Arg(a, 0));
                }
                return Value::Undefined();
              });
          TURNSTILE_ASSIGN_OR_RETURN(
              unused, in.CallFunction(executor.AsFunction(), Value::Undefined(),
                                      {Value(resolve), Value(reject)}));
          (void)unused;
        }
        return Value(promise);
      })));

  // Timers
  DefineGlobal("setTimeout", Value(MakeNativeFunction(
      "setTimeout", [](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value fn = Unbox(Arg(args, 0));
        if (!fn.IsFunction()) {
          return Interpreter::TypeError("setTimeout requires a function");
        }
        double delay_ms = Unbox(Arg(args, 1)).ToNumber();
        if (std::isnan(delay_ms)) {
          delay_ms = 0;
        }
        in.ScheduleTask(fn.AsFunction(), {}, delay_ms / 1000.0);
        return Value(0.0);
      })));

  // require
  DefineGlobal("require", Value(MakeNativeFunction(
      "require", [](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
        return in.RequireModule(UnboxDeep(Arg(args, 0)).ToDisplayString());
      })));
}

}  // namespace turnstile
