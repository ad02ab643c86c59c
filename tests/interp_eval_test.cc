// Core evaluator semantics: expressions, control flow, functions, classes.
#include <memory>

#include <gtest/gtest.h>

#include "src/interp/interp.h"
#include "src/lang/parser.h"

namespace turnstile {
namespace {

// The value of a global together with the interpreter that produced it: no
// value outlives its interpreter (src/interp/heap.h).
struct RunResult {
  std::unique_ptr<Interpreter> interp;
  Value value;
  const Value* operator->() const { return &value; }
};

// Runs `source` and returns the value of the global variable `result`.
RunResult RunAndGet(const std::string& source, const std::string& var = "result") {
  auto interp = std::make_unique<Interpreter>();
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) {
    return {std::move(interp), Value::Undefined()};
  }
  Status status = interp->RunProgram(*program);
  EXPECT_TRUE(status.ok()) << status.ToString();
  Status loop_status = interp->RunEventLoop();
  EXPECT_TRUE(loop_status.ok()) << loop_status.ToString();
  Value* slot = interp->global_env()->Lookup(var);
  Value value = slot != nullptr ? *slot : Value::Undefined();
  return {std::move(interp), std::move(value)};
}

double RunNumber(const std::string& source) { return RunAndGet(source)->ToNumber(); }
std::string RunString(const std::string& source) { return RunAndGet(source)->ToDisplayString(); }

TEST(EvalTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(RunNumber("let result = 1 + 2 * 3;"), 7);
  EXPECT_DOUBLE_EQ(RunNumber("let result = (1 + 2) * 3;"), 9);
  EXPECT_DOUBLE_EQ(RunNumber("let result = 10 % 3;"), 1);
  EXPECT_DOUBLE_EQ(RunNumber("let result = 2 ** 10;"), 1024);
  EXPECT_DOUBLE_EQ(RunNumber("let result = 7 / 2;"), 3.5);
}

TEST(EvalTest, StringConcatenation) {
  EXPECT_EQ(RunString("let result = \"a\" + \"b\" + 1;"), "ab1");
  EXPECT_EQ(RunString("let result = 1 + 2 + \"x\";"), "3x");
}

TEST(EvalTest, ComparisonAndEquality) {
  EXPECT_TRUE(RunAndGet("let result = 1 < 2;")->AsBool());
  EXPECT_TRUE(RunAndGet("let result = \"a\" < \"b\";")->AsBool());
  EXPECT_TRUE(RunAndGet("let result = 1 == \"1\";")->AsBool());
  EXPECT_FALSE(RunAndGet("let result = 1 === \"1\";")->AsBool());
  EXPECT_TRUE(RunAndGet("let result = null == undefined;")->AsBool());
  EXPECT_FALSE(RunAndGet("let result = null === undefined;")->AsBool());
}

TEST(EvalTest, ReferenceEqualityForObjects) {
  EXPECT_FALSE(RunAndGet("let result = {} === {};")->AsBool());
  EXPECT_TRUE(RunAndGet("let a = {}; let b = a; let result = a === b;")->AsBool());
}

TEST(EvalTest, LogicalShortCircuit) {
  EXPECT_DOUBLE_EQ(RunNumber("let hits = 0; function f() { hits = hits + 1; return true; } "
                             "let x = false && f(); let result = hits;"),
                   0);
  EXPECT_DOUBLE_EQ(RunNumber("let result = null ?? 5;"), 5);
  EXPECT_DOUBLE_EQ(RunNumber("let result = 0 ?? 5;"), 0);
  EXPECT_DOUBLE_EQ(RunNumber("let result = 0 || 5;"), 5);
}

TEST(EvalTest, TernaryAndUnary) {
  EXPECT_EQ(RunString("let result = 2 > 1 ? \"yes\" : \"no\";"), "yes");
  EXPECT_TRUE(RunAndGet("let result = !0;")->AsBool());
  EXPECT_EQ(RunString("let result = typeof \"s\";"), "string");
  EXPECT_EQ(RunString("let result = typeof missing;"), "undefined");
}

TEST(EvalTest, UpdateExpressions) {
  EXPECT_DOUBLE_EQ(RunNumber("let i = 5; let result = i++;"), 5);
  EXPECT_DOUBLE_EQ(RunNumber("let i = 5; i++; let result = i;"), 6);
  EXPECT_DOUBLE_EQ(RunNumber("let i = 5; let result = ++i;"), 6);
  EXPECT_DOUBLE_EQ(RunNumber("let o = { n: 1 }; o.n++; let result = o.n;"), 2);
}

TEST(EvalTest, CompoundAssignment) {
  EXPECT_DOUBLE_EQ(RunNumber("let x = 2; x += 3; x *= 4; let result = x;"), 20);
  EXPECT_EQ(RunString("let s = \"a\"; s += \"b\"; let result = s;"), "ab");
}

TEST(EvalTest, ObjectsAndMembers) {
  EXPECT_DOUBLE_EQ(RunNumber("let o = { a: 1, b: { c: 2 } }; let result = o.a + o.b.c;"), 3);
  EXPECT_DOUBLE_EQ(RunNumber("let o = {}; o.x = 9; let result = o.x;"), 9);
  EXPECT_DOUBLE_EQ(RunNumber("let o = { k: 4 }; let key = \"k\"; let result = o[key];"), 4);
  EXPECT_EQ(RunString("let k = \"dyn\"; let o = { [k]: \"v\" }; let result = o.dyn;"), "v");
}

TEST(EvalTest, ShorthandProperties) {
  EXPECT_DOUBLE_EQ(RunNumber("let a = 7; let o = { a }; let result = o.a;"), 7);
}

TEST(EvalTest, DeleteProperty) {
  EXPECT_EQ(RunString("let o = { a: 1 }; delete o.a; let result = typeof o.a;"), "undefined");
}

TEST(EvalTest, Arrays) {
  EXPECT_DOUBLE_EQ(RunNumber("let a = [1, 2, 3]; let result = a[0] + a[2];"), 4);
  EXPECT_DOUBLE_EQ(RunNumber("let a = [1, 2, 3]; let result = a.length;"), 3);
  EXPECT_DOUBLE_EQ(RunNumber("let a = []; a[4] = 1; let result = a.length;"), 5);
  EXPECT_DOUBLE_EQ(RunNumber("let a = [1, ...[2, 3], 4]; let result = a.length;"), 4);
}

TEST(EvalTest, FunctionsAndClosures) {
  EXPECT_DOUBLE_EQ(RunNumber("function add(a, b) { return a + b; } let result = add(2, 3);"), 5);
  EXPECT_DOUBLE_EQ(RunNumber("let make = x => (y => x + y); let add2 = make(2); "
                             "let result = add2(40);"),
                   42);
  EXPECT_DOUBLE_EQ(
      RunNumber("function counter() { let n = 0; return () => { n = n + 1; return n; }; } "
                "let c = counter(); c(); c(); let result = c();"),
      3);
}

TEST(EvalTest, RestAndSpreadArguments) {
  EXPECT_DOUBLE_EQ(RunNumber("function f(a, ...rest) { return rest.length; } "
                             "let result = f(1, 2, 3, 4);"),
                   3);
  EXPECT_DOUBLE_EQ(RunNumber("function f(a, b, c) { return a + b + c; } "
                             "let args = [1, 2, 3]; let result = f(...args);"),
                   6);
}

TEST(EvalTest, DefaultUndefinedForMissingArgs) {
  EXPECT_EQ(RunString("function f(a, b) { return typeof b; } let result = f(1);"), "undefined");
}

TEST(EvalTest, ControlFlow) {
  EXPECT_DOUBLE_EQ(RunNumber("let s = 0; for (let i = 1; i <= 10; i++) { s += i; } "
                             "let result = s;"),
                   55);
  EXPECT_DOUBLE_EQ(RunNumber("let s = 0; let i = 0; while (i < 5) { i++; if (i === 3) { "
                             "continue; } s += i; } let result = s;"),
                   12);
  EXPECT_DOUBLE_EQ(RunNumber("let s = 0; for (let i = 0; ; i++) { if (i === 4) { break; } "
                             "s += i; } let result = s;"),
                   6);
  EXPECT_DOUBLE_EQ(RunNumber("let s = 0; for (let x of [10, 20, 30]) { s += x; } "
                             "let result = s;"),
                   60);
}

TEST(EvalTest, ForOfString) {
  EXPECT_DOUBLE_EQ(RunNumber("let n = 0; for (let c of \"abc\") { n++; } let result = n;"), 3);
}

TEST(EvalTest, BlockScoping) {
  EXPECT_DOUBLE_EQ(RunNumber("let x = 1; { let x = 2; } let result = x;"), 1);
}

TEST(EvalTest, TryCatchThrow) {
  EXPECT_EQ(RunString("let result = \"none\"; try { throw \"boom\"; } catch (e) { result = e; }"),
            "boom");
  EXPECT_EQ(RunString("let result = \"\"; try { result += \"t\"; } catch (e) { result += \"c\"; } "
                      "finally { result += \"f\"; }"),
            "tf");
  EXPECT_EQ(RunString("function risky() { throw { message: \"inner\" }; } let result = \"\"; "
                      "try { risky(); } catch (e) { result = e.message; }"),
            "inner");
}

TEST(EvalTest, UncaughtThrowIsAnError) {
  Interpreter interp;
  auto program = ParseProgram("throw \"kaboom\";");
  ASSERT_TRUE(program.ok());
  Status status = interp.RunProgram(*program);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("kaboom"), std::string::npos);
}

TEST(EvalTest, Classes) {
  EXPECT_DOUBLE_EQ(RunNumber(R"(
    class Counter {
      constructor(start) { this.n = start; }
      bump() { this.n = this.n + 1; return this.n; }
    }
    let c = new Counter(10);
    c.bump();
    let result = c.bump();
  )"),
                   12);
}

TEST(EvalTest, ClassInheritance) {
  EXPECT_EQ(RunString(R"(
    class Device {
      describe() { return "device:" + this.id; }
    }
    class Camera extends Device {
      constructor(id) { this.id = id; }
    }
    let cam = new Camera("c1");
    let result = cam.describe();
  )"),
            "device:c1");
}

TEST(EvalTest, MethodOverride) {
  EXPECT_EQ(RunString(R"(
    class A { who() { return "A"; } }
    class B extends A { who() { return "B"; } }
    let result = new B().who();
  )"),
            "B");
}

TEST(EvalTest, ClassWithoutNewFails) {
  Interpreter interp;
  auto program = ParseProgram("class A {} A();");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(interp.RunProgram(*program).ok());
}

TEST(EvalTest, ThisInMethodsAndArrows) {
  // Arrows capture `this` lexically from the enclosing method.
  EXPECT_DOUBLE_EQ(RunNumber(R"(
    class Box {
      constructor() { this.v = 5; }
      total(items) {
        let sum = 0;
        items.forEach(x => { sum += x + this.v; });
        return sum;
      }
    }
    let result = new Box().total([1, 2]);
  )"),
                   13);
}

TEST(EvalTest, SequenceAndComma) {
  EXPECT_DOUBLE_EQ(RunNumber("let result = (1, 2, 3);"), 3);
}

TEST(EvalTest, OptionalChainingShortCircuits) {
  EXPECT_EQ(RunString("let o = null; let result = typeof o?.a;"), "undefined");
  EXPECT_DOUBLE_EQ(RunNumber("let o = { a: { b: 3 } }; let result = o?.a?.b;"), 3);
}

TEST(EvalTest, InOperator) {
  EXPECT_TRUE(RunAndGet("let result = \"a\" in { a: 1 };")->AsBool());
  EXPECT_FALSE(RunAndGet("let result = \"b\" in { a: 1 };")->AsBool());
}

TEST(EvalTest, UndeclaredVariableIsAnError) {
  Interpreter interp;
  auto program = ParseProgram("let x = neverDeclared + 1;");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(interp.RunProgram(*program).ok());
}

TEST(EvalTest, RecursionDepthIsBounded) {
  Interpreter interp;
  auto program = ParseProgram("function f() { return f(); } f();");
  ASSERT_TRUE(program.ok());
  Status status = interp.RunProgram(*program);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("call depth"), std::string::npos);
}

TEST(EvalTest, EvalCountAdvances) {
  // On the bytecode tier the count is executed instructions, which this
  // program keeps to three; the metric must be positive and grow with every
  // further run.
  Interpreter interp;
  auto program = ParseProgram("let x = 1 + 2;");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(interp.RunProgram(*program).ok());
  const uint64_t first = interp.eval_count();
  EXPECT_GT(first, 0u);
  ASSERT_TRUE(interp.RunProgram(*program).ok());
  EXPECT_EQ(interp.eval_count(), 2 * first);
}

}  // namespace
}  // namespace turnstile
