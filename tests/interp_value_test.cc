// Direct unit tests for the Value model: coercions, identity, equality and
// the value-type/reference-type distinction the DIFT boxing design rests on.
#include "src/interp/value.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/interp/environment.h"
#include "src/interp/heap.h"

namespace turnstile {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().IsUndefined());
  EXPECT_TRUE(Value::Null().IsNull());
  EXPECT_TRUE(Value(true).IsBool());
  EXPECT_TRUE(Value(2.5).IsNumber());
  EXPECT_TRUE(Value("s").IsString());
  EXPECT_TRUE(Value(MakeObject()).IsObject());
  EXPECT_TRUE(Value(MakeArray()).IsArray());
  EXPECT_TRUE(Value(MakeNativeFunction("f", nullptr)).IsFunction());
}

TEST(ValueTest, ValueTypesHaveNoIdentity) {
  // The §4.4 premise: value types have no identity and no label slot, so
  // the tracker must box them.
  EXPECT_EQ(Value(1.0).IdentityKey(), nullptr);
  EXPECT_EQ(Value("x").IdentityKey(), nullptr);
  EXPECT_EQ(Value(true).IdentityKey(), nullptr);
  EXPECT_EQ(Value().IdentityKey(), nullptr);
  EXPECT_EQ(Value("x").label_slot(), nullptr);
  EXPECT_NE(Value(MakeObject()).label_slot(), nullptr);
  EXPECT_NE(Value(MakeArray()).label_slot(), nullptr);
  EXPECT_TRUE(Value("x").IsValueType());

  ObjectPtr obj = MakeObject();
  Value a(obj);
  Value b(obj);
  EXPECT_NE(a.IdentityKey(), nullptr);
  EXPECT_EQ(a.IdentityKey(), b.IdentityKey());  // copies share identity
  EXPECT_FALSE(a.IsValueType());
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value(0.0).Truthy());
  EXPECT_FALSE(Value(std::nan("")).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value(-1.0).Truthy());
  EXPECT_TRUE(Value("0").Truthy());  // JS quirk: non-empty string
  EXPECT_TRUE(Value(MakeObject()).Truthy());
  EXPECT_TRUE(Value(MakeArray()).Truthy());
}

TEST(ValueTest, ToNumberCoercions) {
  EXPECT_DOUBLE_EQ(Value(true).ToNumber(), 1.0);
  EXPECT_DOUBLE_EQ(Value(false).ToNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value::Null().ToNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value(" 42 ").ToNumber(), 42.0);
  EXPECT_DOUBLE_EQ(Value("").ToNumber(), 0.0);
  EXPECT_TRUE(std::isnan(Value("4x").ToNumber()));
  EXPECT_TRUE(std::isnan(Value().ToNumber()));
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value().ToDisplayString(), "undefined");
  EXPECT_EQ(Value::Null().ToDisplayString(), "null");
  EXPECT_EQ(Value(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(Value(3.0).ToDisplayString(), "3");
  ArrayPtr arr = MakeArray({Value(1.0), Value("a")});
  EXPECT_EQ(Value(arr).ToDisplayString(), "[1, a]");
  ObjectPtr obj = MakeObject();
  obj->Set("k", Value("v"));
  EXPECT_EQ(Value(obj).ToDisplayString(), "{ k: \"v\" }");
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(Value().TypeName(), "undefined");
  EXPECT_STREQ(Value::Null().TypeName(), "object");  // the JS quirk
  EXPECT_STREQ(Value(1.0).TypeName(), "number");
  EXPECT_STREQ(Value("s").TypeName(), "string");
  EXPECT_STREQ(Value(MakeArray()).TypeName(), "object");
  EXPECT_STREQ(Value(MakeNativeFunction("f", nullptr)).TypeName(), "function");
}

TEST(ValueTest, StrictEquality) {
  EXPECT_TRUE(Value(1.0).StrictEquals(Value(1.0)));
  EXPECT_FALSE(Value(1.0).StrictEquals(Value("1")));
  EXPECT_TRUE(Value("a").StrictEquals(Value("a")));
  EXPECT_TRUE(Value().StrictEquals(Value()));
  EXPECT_FALSE(Value().StrictEquals(Value::Null()));
  ObjectPtr obj = MakeObject();
  EXPECT_TRUE(Value(obj).StrictEquals(Value(obj)));
  EXPECT_FALSE(Value(MakeObject()).StrictEquals(Value(MakeObject())));
}

TEST(ValueTest, ObjectInsertionOrderAndDelete) {
  ObjectPtr obj = MakeObject();
  obj->Set("b", Value(1.0));
  obj->Set("a", Value(2.0));
  obj->Set("b", Value(3.0));  // overwrite keeps position
  ASSERT_EQ(obj->insertion_order.size(), 2u);
  EXPECT_EQ(AtomName(obj->insertion_order[0]), "b");
  obj->Delete("b");
  EXPECT_FALSE(obj->Has("b"));
  ASSERT_EQ(obj->insertion_order.size(), 1u);
  EXPECT_EQ(AtomName(obj->insertion_order[0]), "a");
}

TEST(ValueTest, ObjectTrapsFire) {
  ObjectPtr obj = MakeObject();
  int sets = 0;
  obj->set_trap = [&sets](Object&, const std::string&, const Value&) { ++sets; };
  obj->Set("x", Value(1.0));
  obj->Set("x", Value(2.0));
  obj->Delete("x");  // deletion is not trapped
  EXPECT_EQ(sets, 2);
}

TEST(ValueTest, BoxingHelpers) {
  Value plain("payload");
  EXPECT_FALSE(IsBox(plain));
  EXPECT_TRUE(Unbox(plain).StrictEquals(plain));

  ObjectPtr box = MakeObject();
  box->is_box = true;
  box->box_payload = plain;
  Value boxed(box);
  EXPECT_TRUE(IsBox(boxed));
  EXPECT_EQ(Unbox(boxed).AsString(), "payload");

  ObjectPtr outer = MakeObject();
  outer->is_box = true;
  outer->box_payload = boxed;
  EXPECT_TRUE(IsBox(Unbox(Value(outer))));  // one layer removed: still a box
  EXPECT_EQ(UnboxDeep(Value(outer)).AsString(), "payload");
}

TEST(ValueTest, BoxesForwardTruthinessAndNumbers) {
  ObjectPtr box = MakeObject();
  box->is_box = true;
  box->box_payload = Value(0.0);
  EXPECT_FALSE(Value(box).Truthy());  // falsy payload, unlike plain objects
  EXPECT_DOUBLE_EQ(Value(box).ToNumber(), 0.0);
  box->box_payload = Value(7.0);
  EXPECT_TRUE(Value(box).Truthy());
  EXPECT_EQ(Value(box).ToDisplayString(), "7");
}

TEST(ValueTest, ClassMethodLookupWalksTheChain) {
  auto base = std::make_shared<ClassInfo>();
  base->name = "Base";
  base->methods["ping"] = MakeNativeFunction("ping", nullptr);
  auto derived = std::make_shared<ClassInfo>();
  derived->name = "Derived";
  derived->superclass = base;
  derived->methods["pong"] = MakeNativeFunction("pong", nullptr);
  EXPECT_NE(derived->FindMethod("pong"), nullptr);
  EXPECT_NE(derived->FindMethod("ping"), nullptr);  // inherited
  EXPECT_EQ(derived->FindMethod("zap"), nullptr);
}

// --- the heap registry (src/interp/heap.h) ---------------------------------

TEST(HeapTest, TeardownFreesCyclesAndLeavesHeldCellsEmpty) {
  std::weak_ptr<Object> cycle;
  std::weak_ptr<Environment> frame;
  ObjectPtr held;
  {
    Heap heap;
    {
      Heap::Scope scope(&heap);
      ObjectPtr self_loop = MakeObject();
      self_loop->Set("self", Value(self_loop));
      cycle = self_loop;
      // function -> closure environment -> slot -> function
      EnvPtr env = Environment::MakeChild(nullptr, 1);
      FunctionPtr fn = MakeNativeFunction("f", nullptr);
      fn->closure = env;
      env->slots[0] = Value(fn);
      frame = env;
      held = MakeObject();
      held->Set("child", Value(MakeArray({Value(1)})));
    }
    EXPECT_EQ(heap.size(), 5u);
    EXPECT_FALSE(cycle.expired());
    heap.Teardown();
    EXPECT_TRUE(cycle.expired());
    EXPECT_TRUE(frame.expired());
    EXPECT_TRUE(held->properties.empty());  // still referenced here: a husk
    EXPECT_EQ(heap.size(), 1u);
    EXPECT_TRUE(held->tracked());
  }
  EXPECT_FALSE(held->tracked());  // detached when its heap was destroyed
}

TEST(HeapTest, AdoptTakesOnlyUntrackedCells) {
  Heap mine;
  Heap other;
  ObjectPtr theirs;
  {
    Heap::Scope scope(&other);
    theirs = MakeObject();
  }
  ObjectPtr host = MakeObject();  // no current heap: untracked
  EXPECT_FALSE(host->tracked());
  host->Set("theirs", Value(theirs));
  host->Set("loop", Value(MakeArray({Value(host)})));
  mine.Adopt(Value(host));
  EXPECT_EQ(mine.size(), 2u);  // host and its array
  EXPECT_EQ(other.size(), 1u);
  std::weak_ptr<Object> weak_host = host;
  host.reset();
  mine.Teardown();  // cuts host -> array -> host
  EXPECT_TRUE(weak_host.expired());
  theirs.reset();
}

}  // namespace
}  // namespace turnstile
