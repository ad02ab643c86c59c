// Regression suite for tricky interpreter semantics: closure capture, abrupt
// completion interplay, spread/rest composition, and box transparency in
// library code.
#include <memory>

#include <gtest/gtest.h>

#include "src/dift/tracker.h"
#include "src/interp/interp.h"
#include "src/lang/parser.h"

namespace turnstile {
namespace {

// A result together with the interpreter that produced it: no value
// outlives its interpreter (src/interp/heap.h), so `value` is read only while
// `interp` is alive.
struct RunResult {
  std::unique_ptr<Interpreter> interp;
  Value value;
  const Value* operator->() const { return &value; }
};

RunResult RunAndGet(const std::string& source, const std::string& var = "result") {
  auto interp = std::make_unique<Interpreter>();
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Status status = interp->RunProgram(*program);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(interp->RunEventLoop().ok());
  Value* slot = interp->global_env()->Lookup(var);
  Value value = slot != nullptr ? *slot : Value::Undefined();
  return {std::move(interp), std::move(value)};
}

TEST(SemanticsTest, ForOfFreshBindingPerIteration) {
  // Each iteration gets a fresh loop variable, so closures capture distinct
  // values (the let-in-loop semantics).
  EXPECT_EQ(RunAndGet(R"(
    let fns = [];
    for (let i of [1, 2, 3]) {
      fns.push(() => i);
    }
    let result = fns.map(f => f()).join(",");
  )")->ToDisplayString(),
            "1,2,3");
}

TEST(SemanticsTest, SharedMutableCapture) {
  // Two closures over the same binding observe each other's writes.
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    function makePair() {
      let n = 0;
      return { inc: () => { n = n + 1; }, get: () => n };
    }
    let pair = makePair();
    pair.inc();
    pair.inc();
    let result = pair.get();
  )")->AsNumber(),
                   2);
}

TEST(SemanticsTest, FinallyOverridesReturn) {
  EXPECT_EQ(RunAndGet(R"(
    function f() {
      try {
        return "try";
      } finally {
        out.push("finally ran");
      }
    }
    out = [];
    let result = f() + "/" + out.length;
  )")->ToDisplayString(),
            "try/1");
}

TEST(SemanticsTest, CatchRethrowPropagates) {
  EXPECT_EQ(RunAndGet(R"(
    let result = "";
    try {
      try {
        throw "inner";
      } catch (e) {
        throw e + "+rethrown";
      }
    } catch (e) {
      result = e;
    }
  )")->ToDisplayString(),
            "inner+rethrown");
}

TEST(SemanticsTest, ThrowAcrossFunctionBoundaryIsCatchable) {
  EXPECT_EQ(RunAndGet(R"(
    function deep(n) {
      if (n === 0) {
        throw { code: 42 };
      }
      return deep(n - 1);
    }
    let result = 0;
    try {
      deep(5);
    } catch (e) {
      result = e.code;
    }
  )")->AsNumber(),
            42);
}

TEST(SemanticsTest, SpreadIntoRestRoundTrips) {
  EXPECT_EQ(RunAndGet(R"(
    function gather(first, ...rest) {
      return first + ":" + rest.join("");
    }
    let parts = [1, 2, 3, 4];
    let result = gather(...parts);
  )")->ToDisplayString(),
            "1:234");
}

TEST(SemanticsTest, HoistedFunctionUsableBeforeDeclaration) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    let result = later(20);
    function later(x) { return x * 2 + 2; }
  )")->AsNumber(),
                   42);
}

TEST(SemanticsTest, ShadowingAcrossNestedClosuresReadsNearestBinding) {
  // Three distinct `x` bindings: the slot-resolved reads must each hit their
  // own scope, and the inner writes must not leak outward.
  EXPECT_EQ(RunAndGet(R"(
    let x = "g";
    function outer() {
      let x = "o";
      function inner() {
        let x = "i";
        x = x + "!";
        return x;
      }
      return inner() + x;
    }
    let result = outer() + x;
  )")->ToDisplayString(),
            "i!og");
}

TEST(SemanticsTest, CatchParamShadowsWithoutLeaking) {
  // The catch parameter lives in its own one-slot frame; the outer binding
  // with the same name is untouched by writes inside the handler.
  EXPECT_EQ(RunAndGet(R"(
    let e = "outer";
    let seen = "";
    try {
      throw "thrown";
    } catch (e) {
      e = e + "+edited";
      seen = e;
    }
    let result = seen + "/" + e;
  )")->ToDisplayString(),
            "thrown+edited/outer");
}

TEST(SemanticsTest, NamedFunctionExpressionSelfReferenceRecurses) {
  // The resolver gives named function expressions a self-binding slot inside
  // their own frame, visible even when the outer variable is reassigned.
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    let f = function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); };
    let g = f;
    f = null;
    let result = g(5);
  )")->AsNumber(),
                   120);
}

TEST(SemanticsTest, ForOfIterableEvaluatesInOuterScope) {
  // The loop variable's per-iteration frame must not be in scope while the
  // iterable expression itself evaluates.
  EXPECT_EQ(RunAndGet(R"(
    let item = "outer";
    let out = [];
    for (let item of [item + "1", item + "2"]) {
      out.push(item);
    }
    let result = out.join(",");
  )")->ToDisplayString(),
            "outer1,outer2");
}

TEST(SemanticsTest, MethodExtractedLosesThisButBindRestores) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    class Box {
      constructor() { this.v = 7; }
      get2() { return this.v; }
    }
    let box = new Box();
    let bound = box.get2.bind(box);
    let result = bound();
  )")->AsNumber(),
                   7);
}

TEST(SemanticsTest, NestedPromisesSettleInOrder) {
  EXPECT_EQ(RunAndGet(R"(
    let order = [];
    new Promise(res => { res(1); }).then(v => { order.push("p1:" + v); });
    new Promise(res => { res(2); }).then(v => { order.push("p2:" + v); });
    setTimeout(() => { order.push("timer"); }, 0);
    let result = order;
  )")->ToDisplayString(),
            "[p1:1, p2:2, timer]");  // microtasks before macrotasks
}

TEST(SemanticsTest, ImplicitGlobalAssignmentDefines) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    function init() { counter = 10; }
    init();
    counter = counter + 1;
    let result = counter;
  )")->AsNumber(),
                   11);
}

// --- box transparency in library paths ----------------------------------------

constexpr const char* kBoxPolicy = R"json({
  "labellers": { "mark": { "$const": "marked" } },
  "rules": []
})json";

struct BoxFixture {
  Interpreter interp;
  std::shared_ptr<Policy> policy;
  std::unique_ptr<DiftTracker> tracker;

  BoxFixture() {
    auto parsed = Policy::FromJsonText(kBoxPolicy);
    policy = std::shared_ptr<Policy>(std::move(parsed).value().release());
    tracker = std::make_unique<DiftTracker>(&interp, policy);
    tracker->Install();
  }

  Value Run(const std::string& source, const std::string& var = "result") {
    auto program = ParseProgram(source);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    Status status = interp.RunProgram(*program);
    EXPECT_TRUE(status.ok()) << status.ToString();
    Value* slot = interp.global_env()->Lookup(var);
    return slot != nullptr ? *slot : Value::Undefined();
  }
};

TEST(SemanticsTest, BoxedStringWorksWithStringMethods) {
  BoxFixture f;
  EXPECT_EQ(f.Run(R"(
    let s = __dift.label("Secret Data", "mark");
    let result = s.toLowerCase() + "/" + s.length + "/" + s.includes("Data");
  )").ToDisplayString(),
            "secret data/11/true");
}

TEST(SemanticsTest, BoxedValuesInArraysSurviveJoinAndIndexOf) {
  BoxFixture f;
  EXPECT_EQ(f.Run(R"(
    let x = __dift.label("b", "mark");
    let xs = ["a", x, "c"];
    let result = xs.join("-") + "/" + xs.indexOf(x);
  )").ToDisplayString(),
            "a-b-c/1");
}

TEST(SemanticsTest, BoxedNumberComparesAndSwitchesBranches) {
  BoxFixture f;
  EXPECT_EQ(f.Run(R"(
    let n = __dift.label(5, "mark");
    let result = (n > 3 ? "big" : "small") + "/" + (n === 5);
  )").ToDisplayString(),
            "big/true");
}

TEST(SemanticsTest, BoxedKeyIndexesObjects) {
  BoxFixture f;
  EXPECT_EQ(f.Run(R"(
    let key = __dift.label("door", "mark");
    let state = { door: "locked" };
    let result = state[key];
  )").ToDisplayString(),
            "locked");
}

TEST(SemanticsTest, JsonStringifyUnwrapsBoxes) {
  BoxFixture f;
  EXPECT_EQ(f.Run(R"(
    let v = __dift.label("x", "mark");
    let result = JSON.stringify({ field: v });
  )").ToDisplayString(),
            "{\"field\":\"x\"}");
}

}  // namespace
}  // namespace turnstile
