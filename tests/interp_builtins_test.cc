// Built-in globals: console, Math, JSON, Object, array/string methods,
// promises, timers and the event loop.
#include <memory>

#include <gtest/gtest.h>

#include "src/interp/interp.h"
#include "src/lang/parser.h"

namespace turnstile {
namespace {

// The interpreter stays alive as long as the outcome: no value outlives its
// interpreter (src/interp/heap.h).
struct RunOutcome {
  std::unique_ptr<Interpreter> interp;
  Value result;
  std::vector<IoRecord> records;
};

RunOutcome RunScript(const std::string& source, const std::string& var = "result") {
  auto interp = std::make_unique<Interpreter>();
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Status status = interp->RunProgram(*program);
  EXPECT_TRUE(status.ok()) << status.ToString();
  Status loop_status = interp->RunEventLoop();
  EXPECT_TRUE(loop_status.ok()) << loop_status.ToString();
  Value* slot = interp->global_env()->Lookup(var);
  Value result = slot != nullptr ? *slot : Value::Undefined();
  std::vector<IoRecord> records = interp->io_world().records;
  return {std::move(interp), std::move(result), std::move(records)};
}

double RunNumber(const std::string& source) { return RunScript(source).result.ToNumber(); }
std::string RunString(const std::string& source) {
  return RunScript(source).result.ToDisplayString();
}

TEST(BuiltinsTest, ConsoleLogRecordsToIoWorld) {
  RunOutcome out = RunScript("console.log(\"hello\", 42);");
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].channel, "console");
  EXPECT_EQ(out.records[0].payload, "hello 42");
}

TEST(BuiltinsTest, MathFunctions) {
  EXPECT_DOUBLE_EQ(RunNumber("let result = Math.floor(2.9);"), 2);
  EXPECT_DOUBLE_EQ(RunNumber("let result = Math.max(1, 9, 4);"), 9);
  EXPECT_DOUBLE_EQ(RunNumber("let result = Math.min(3, -2);"), -2);
  EXPECT_DOUBLE_EQ(RunNumber("let result = Math.abs(-5);"), 5);
  EXPECT_DOUBLE_EQ(RunNumber("let result = Math.pow(2, 8);"), 256);
}

TEST(BuiltinsTest, MathRandomIsDeterministicPerInterpreter) {
  double a = RunNumber("let result = Math.random();");
  double b = RunNumber("let result = Math.random();");
  EXPECT_DOUBLE_EQ(a, b);  // fresh interpreter, same seed
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
}

TEST(BuiltinsTest, JsonStringifyAndParse) {
  EXPECT_EQ(RunString("let result = JSON.stringify({ a: 1, b: [true, null] });"),
            R"({"a":1,"b":[true,null]})");
  EXPECT_DOUBLE_EQ(RunNumber("let o = JSON.parse(\"{\\\"x\\\": 7}\"); let result = o.x;"), 7);
}

TEST(BuiltinsTest, JsonStringifySkipsFunctionsAndInternals) {
  EXPECT_EQ(RunString("let result = JSON.stringify({ a: 1, f: () => 1, __hidden: 2 });"),
            R"({"a":1})");
}

TEST(BuiltinsTest, JsonParseFailureIsCatchable) {
  EXPECT_EQ(RunString("let result = \"no\"; try { JSON.parse(\"{bad\"); } "
                      "catch (e) { result = \"caught\"; }"),
            "caught");
  // The message is the grammar's, unchanged.
  EXPECT_EQ(RunString("let result = \"\"; try { JSON.parse(\"[1 2]\"); } "
                      "catch (e) { result = e.message; }"),
            "JSON.parse: expected ',' or ']' at offset 3");
  EXPECT_EQ(RunString("let result = \"\"; try { JSON.parse('{\"a\":1'); } "
                      "catch (e) { result = e.message; }"),
            "JSON.parse: unterminated object at offset 6");
}

TEST(BuiltinsTest, JsonParseDuplicateKeyKeepsFirstPositionAndLastValue) {
  EXPECT_EQ(RunString("let o = JSON.parse('{\"a\": 1, \"b\": 2, \"a\": 3, \"c\": 4}');"
                      "let result = Object.keys(o).join(\",\") + \"|\" + o.a + \"|\" + o.b;"),
            "a,b,c|3|2");
}

TEST(BuiltinsTest, JsonParseBuildsNestedValues) {
  const std::string parse =
      "let o = JSON.parse('{ // sensor frame\\n"
      "\"id\": \"cam\\\\u00e9\", \"dims\": [640, 480.5, -1e3,], \"on\": true,"
      " \"meta\": {\"tags\": [\"a\", [\"b\", null]], \"empty\": {}, \"none\": []},"
      " \"esc\": \"q\\\\\"t\\\\\\\\n\\\\t\", }');";
  EXPECT_EQ(RunString(parse + "let result = JSON.stringify(o);"),
            R"({"id":"camé","dims":[640,480.5,-1000],"on":true,)"
            R"("meta":{"tags":["a",["b",null]],"empty":{},"none":[]},"esc":"q\"t\\n\t"})");
  EXPECT_EQ(RunString(parse + "let result = o.meta.tags[1][0] + o.dims.length + typeof o.on;"),
            "b3boolean");
  EXPECT_EQ(RunString(parse + "let result = o.meta.tags[1][1] === null;"), "true");
  EXPECT_DOUBLE_EQ(RunNumber("let result = JSON.parse(\"[1, [2, [3]]]\")[1][1][0];"), 3);
  EXPECT_EQ(RunString("let result = JSON.parse('\"plain\"');"), "plain");
}

TEST(BuiltinsTest, JsonParseWideObjectRoundTrips) {
  std::string text = "{";
  for (int i = 0; i < 10000; ++i) {
    text += (i == 0 ? "\"k" : ",\"k") + std::to_string(i) + "\":" + std::to_string(i % 97);
  }
  text += "}";
  EXPECT_EQ(RunString("let text = '" + text + "'; let o = JSON.parse(text);"
                      "let result = (JSON.stringify(o) == text) + \"|\" + Object.keys(o).length"
                      " + \"|\" + o.k9999;"),
            "true|10000|8");
}

TEST(BuiltinsTest, JsonParseNestingLimitThrowsCatchableError) {
  const std::string deep(100000, '[');
  EXPECT_EQ(RunString("let result = \"\"; try { JSON.parse(\"" + deep + "\"); } "
                      "catch (e) { result = e.message; }"),
            "JSON.parse: nesting deeper than 512 levels at offset 512");
  EXPECT_DOUBLE_EQ(RunNumber("let result = JSON.parse(\"" + std::string(512, '[') + "7" +
                             std::string(512, ']') + "\").length;"),
                   1);
}

TEST(BuiltinsTest, JsonStringifyCutsCyclesAtTheSerializeDepth) {
  // Objects nested deeper than kMaxSerializeDepth serialize as null.
  EXPECT_EQ(RunString("let o = { v: 1 }; o.self = o;"
                      "let back = JSON.parse(JSON.stringify(o)); let depth = 0;"
                      "while (back.self !== null) { back = back.self; depth++; }"
                      "let result = depth;"),
            std::to_string(kMaxSerializeDepth));
}

TEST(BuiltinsTest, ObjectKeysValuesAssign) {
  EXPECT_EQ(RunString("let result = Object.keys({ a: 1, b: 2 }).join(\",\");"), "a,b");
  EXPECT_DOUBLE_EQ(RunNumber("let result = Object.values({ a: 3, b: 4 })[1];"), 4);
  EXPECT_DOUBLE_EQ(
      RunNumber("let t = { a: 1 }; Object.assign(t, { b: 2 }, { a: 9 }); let result = t.a + t.b;"),
      11);
}

TEST(BuiltinsTest, ArrayIsArray) {
  EXPECT_TRUE(RunScript("let result = Array.isArray([1]);").result.AsBool());
  EXPECT_FALSE(RunScript("let result = Array.isArray({});").result.AsBool());
}

TEST(BuiltinsTest, ArrayMethods) {
  EXPECT_DOUBLE_EQ(RunNumber("let a = [1]; a.push(2, 3); let result = a.length;"), 3);
  EXPECT_DOUBLE_EQ(RunNumber("let a = [1, 2]; let result = a.pop() + a.length;"), 3);
  EXPECT_DOUBLE_EQ(RunNumber("let a = [5, 6]; let result = a.shift();"), 5);
  EXPECT_EQ(RunString("let result = [3, 1, 2].sort().join(\"\");"), "123");
  EXPECT_EQ(RunString("let result = [1, 2, 3].reverse().join(\"\");"), "321");
  EXPECT_EQ(RunString("let result = [1, 2, 3].map(x => x * 2).join(\",\");"), "2,4,6");
  EXPECT_EQ(RunString("let result = [1, 2, 3, 4].filter(x => x % 2 === 0).join(\",\");"), "2,4");
  EXPECT_DOUBLE_EQ(RunNumber("let result = [1, 2, 3].reduce((a, b) => a + b, 10);"), 16);
  EXPECT_DOUBLE_EQ(RunNumber("let result = [1, 2, 3].indexOf(2);"), 1);
  EXPECT_TRUE(RunScript("let result = [1, 2].includes(2);").result.AsBool());
  EXPECT_DOUBLE_EQ(RunNumber("let result = [4, 8, 15].find(x => x > 5);"), 8);
  EXPECT_TRUE(RunScript("let result = [1, 2].some(x => x === 2);").result.AsBool());
  EXPECT_EQ(RunString("let result = [1, 2, 3, 4].slice(1, 3).join(\"\");"), "23");
  EXPECT_EQ(RunString("let result = [1].concat([2, 3], 4).join(\"\");"), "1234");
  EXPECT_DOUBLE_EQ(RunNumber("let s = 0; [1, 2].forEach(x => { s += x; }); let result = s;"), 3);
}

TEST(BuiltinsTest, StringMethods) {
  EXPECT_EQ(RunString("let result = \"a,b,c\".split(\",\").join(\"-\");"), "a-b-c");
  EXPECT_EQ(RunString("let result = \"AbC\".toLowerCase();"), "abc");
  EXPECT_EQ(RunString("let result = \"AbC\".toUpperCase();"), "ABC");
  EXPECT_DOUBLE_EQ(RunNumber("let result = \"hello\".indexOf(\"ll\");"), 2);
  EXPECT_TRUE(RunScript("let result = \"turnstile\".includes(\"stile\");").result.AsBool());
  EXPECT_TRUE(RunScript("let result = \"policy.json\".endsWith(\".json\");").result.AsBool());
  EXPECT_TRUE(RunScript("let result = \"deviceA\".startsWith(\"device\");").result.AsBool());
  EXPECT_EQ(RunString("let result = \"abcdef\".substring(1, 3);"), "bc");
  EXPECT_EQ(RunString("let result = \"abcdef\".slice(-2);"), "ef");
  EXPECT_EQ(RunString("let result = \"  x \".trim();"), "x");
  EXPECT_EQ(RunString("let result = \"a-b-c\".replace(\"-\", \"+\");"), "a+b-c");
  EXPECT_EQ(RunString("let result = \"xyz\".charAt(1);"), "y");
  EXPECT_DOUBLE_EQ(RunNumber("let result = \"A\".charCodeAt(0);"), 65);
  EXPECT_DOUBLE_EQ(RunNumber("let result = \"camera\".length;"), 6);
}

TEST(BuiltinsTest, Conversions) {
  EXPECT_DOUBLE_EQ(RunNumber("let result = parseInt(\"42px\");"), 42);
  EXPECT_DOUBLE_EQ(RunNumber("let result = parseFloat(\"2.5rest\");"), 2.5);
  EXPECT_EQ(RunString("let result = String(12);"), "12");
  EXPECT_DOUBLE_EQ(RunNumber("let result = Number(\"3.5\");"), 3.5);
  EXPECT_TRUE(RunScript("let result = Boolean(\"x\");").result.AsBool());
  EXPECT_TRUE(RunScript("let result = isNaN(Number(\"nope\"));").result.AsBool());
}

TEST(BuiltinsTest, ErrorConstructor) {
  EXPECT_EQ(RunString("let e = new Error(\"bad thing\"); let result = e.message;"), "bad thing");
}

TEST(BuiltinsTest, FunctionCallApplyBind) {
  EXPECT_DOUBLE_EQ(RunNumber("function f(a, b) { return this.base + a + b; } "
                             "let result = f.call({ base: 10 }, 1, 2);"),
                   13);
  EXPECT_DOUBLE_EQ(RunNumber("function f(a, b) { return this.base + a + b; } "
                             "let result = f.apply({ base: 20 }, [1, 2]);"),
                   23);
  EXPECT_DOUBLE_EQ(RunNumber("function f(x) { return this.base * x; } "
                             "let g = f.bind({ base: 3 }); let result = g(4);"),
                   12);
}

TEST(BuiltinsTest, SetTimeoutRunsViaEventLoopInOrder) {
  RunOutcome out = RunScript(R"(
    let order = [];
    setTimeout(() => { order.push("late"); }, 50);
    setTimeout(() => { order.push("early"); }, 10);
    order.push("sync");
    let result = order;
  )");
  // RunProgram finishes before the loop runs; then timers fire by time order.
  EXPECT_EQ(out.result.ToDisplayString(), "[sync, early, late]");
}

TEST(BuiltinsTest, VirtualTimeAdvancesWithTimers) {
  Interpreter interp;
  auto program = ParseProgram("setTimeout(() => {}, 2500);");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(interp.RunProgram(*program).ok());
  ASSERT_TRUE(interp.RunEventLoop().ok());
  EXPECT_DOUBLE_EQ(interp.VirtualNow(), 2.5);
}

TEST(BuiltinsTest, DateNowReflectsVirtualTime) {
  RunOutcome out = RunScript(R"(
    let result = 0;
    setTimeout(() => { result = Date.now(); }, 1000);
  )");
  EXPECT_DOUBLE_EQ(out.result.ToNumber(), 1000.0);
}

TEST(BuiltinsTest, PromiseResolveThen) {
  RunOutcome out = RunScript(R"(
    let result = "pending";
    let p = new Promise((resolve, reject) => { resolve("done"); });
    p.then(v => { result = v; });
  )");
  EXPECT_EQ(out.result.ToDisplayString(), "done");
}

TEST(BuiltinsTest, PromiseRejectCatch) {
  RunOutcome out = RunScript(R"(
    let result = "pending";
    let p = new Promise((resolve, reject) => { reject("nope"); });
    p.catch(e => { result = e; });
  )");
  EXPECT_EQ(out.result.ToDisplayString(), "nope");
}

TEST(BuiltinsTest, PromiseThenChainsOneLevel) {
  RunOutcome out = RunScript(R"(
    let result = 0;
    new Promise(res => { res(5); }).then(v => v + 1).then(v => { result = v; });
  )");
  EXPECT_DOUBLE_EQ(out.result.ToNumber(), 6);
}

TEST(BuiltinsTest, AwaitSettledPromise) {
  RunOutcome out = RunScript(R"(
    let result = 0;
    async function main() {
      let v = await new Promise(res => { res(41); });
      result = v + 1;
    }
    main();
  )");
  EXPECT_DOUBLE_EQ(out.result.ToNumber(), 42);
}

TEST(BuiltinsTest, AwaitNonPromisePassesThrough) {
  EXPECT_DOUBLE_EQ(RunNumber("async function f() { return (await 7) + 1; } "
                             "let result = 0; f().then(v => { result = v; });"),
                   8);
}

TEST(BuiltinsTest, RequireUnknownModuleFails) {
  Interpreter interp;
  auto program = ParseProgram("let m = require(\"no-such-module\");");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(interp.RunProgram(*program).ok());
}

}  // namespace
}  // namespace turnstile
