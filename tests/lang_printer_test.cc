#include "src/lang/printer.h"

#include <gtest/gtest.h>

#include <ostream>

#include "src/lang/parser.h"

namespace turnstile {
namespace {

std::string Reprint(std::string_view source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) {
    return "";
  }
  return PrintProgram(*program);
}

// Structural equality of two trees, ignoring node ids and locations.
bool TreesEqual(const NodePtr& a, const NodePtr& b) {
  if (a->kind != b->kind || a->str != b->str || a->num != b->num ||
      a->children.size() != b->children.size()) {
    return false;
  }
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!TreesEqual(a->children[i], b->children[i])) {
      return false;
    }
  }
  return true;
}

// Property: parsing the printed output yields a structurally identical tree.
void ExpectRoundTrip(std::string_view source) {
  auto first = ParseProgram(source);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string printed = PrintProgram(*first);
  auto second = ParseProgram(printed);
  ASSERT_TRUE(second.ok()) << "reprint failed to parse:\n" << printed << "\n"
                           << second.status().ToString();
  EXPECT_TRUE(TreesEqual(first->root, second->root))
      << "round-trip mismatch. printed:\n" << printed;
  // Print must also be a fixed point: printing the reparsed tree is identical.
  EXPECT_EQ(printed, PrintProgram(*second));
}

TEST(PrinterTest, SimpleStatements) {
  EXPECT_EQ(Reprint("let a=1;"), "let a = 1;\n");
  EXPECT_EQ(Reprint("f ( a , b );"), "f(a, b);\n");
}

TEST(PrinterTest, StringEscaping) {
  EXPECT_EQ(Reprint("let s = 'a\\n\"b';"), "let s = \"a\\n\\\"b\";\n");
}

struct RoundTripCase {
  const char* name;
  const char* source;
};

// Without this, gtest lists the param as raw pointer bytes, which change with
// every load address and so make the discovered test names unstable.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class PrinterRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(PrinterRoundTripTest, ParsePrintParseIsStable) {
  ExpectRoundTrip(GetParam().source);
}

INSTANTIATE_TEST_SUITE_P(
    Syntax, PrinterRoundTripTest,
    ::testing::Values(
        RoundTripCase{"var_decls", "let a = 1, b; const c = a + b; var d;"},
        RoundTripCase{"precedence", "let x = 1 + 2 * 3 - (4 + 5) / 6 % 7;"},
        RoundTripCase{"logical", "let x = a && b || c ?? d;"},
        RoundTripCase{"comparison", "let x = a === b && c !== d && e < f && g >= h;"},
        RoundTripCase{"unary", "let x = !a; let y = -b; let z = typeof c; delete o.k;"},
        RoundTripCase{"update", "i++; --j; let k = i++ + --j;"},
        RoundTripCase{"conditional", "let x = a ? b : c ? d : e;"},
        RoundTripCase{"assignment_ops", "a = 1; b += 2; c *= 3; d &&= 4;"},
        RoundTripCase{"member_chain", "a.b.c[d].e(f).g;"},
        RoundTripCase{"optional_chain", "let x = a?.b?.c;"},
        RoundTripCase{"calls", "f(); g(1, \"two\", [3], { four: 4 }); h(...args);"},
        RoundTripCase{"array_object", "let x = [1, [2, 3], { a: { b: [] } }];"},
        RoundTripCase{"object_forms",
                      "let o = { a: 1, \"b c\": 2, [k]: 3, short, m(x) { return x; } };"},
        RoundTripCase{"functions", "function f(a, ...rest) { return rest; } let g = "
                                   "function(x) { return x; };"},
        RoundTripCase{"arrows", "let f = x => x + 1; let g = (a, b) => { return a * b; }; "
                                "let h = () => ({ a: 1 });"},
        RoundTripCase{"nested_closure", "let f = x => (y => x + y);"},
        RoundTripCase{"class_decl", "class A extends B {\n constructor(x) { this.x = x; }\n "
                                    "get2() { return this.x; }\n}"},
        RoundTripCase{"new_expr", "let p = new Promise(cb); let q = new ns.Thing(1, 2);"},
        RoundTripCase{"if_else", "if (a) { f(); } else if (b) { g(); } else { h(); }"},
        RoundTripCase{"if_no_block", "if (a) f();"},
        RoundTripCase{"loops", "while (a) { f(); } for (let i = 0; i < 3; i++) { g(i); } "
                               "for (;;) { break; }"},
        RoundTripCase{"for_of", "for (let p of scene.persons) { send(p); }"},
        RoundTripCase{"try_catch", "try { f(); } catch (e) { g(e); } finally { h(); }"},
        RoundTripCase{"throw", "throw makeError(\"bad\");"},
        RoundTripCase{"await_async",
                      "async function f() { let x = await g(); return x; } let h = async "
                      "() => { await f(); };"},
        RoundTripCase{"sequence", "let x = (a, b, c);"},
        RoundTripCase{"spread_array", "let xs = [1, ...ys, 2];"},
        RoundTripCase{"negative_number", "let x = -1.5; let y = 2e3;"},
        RoundTripCase{"paper_fig2a",
                      "socket.on(\"data\", frame => {\n"
                      "  const scene = analyzeVideoFrame(frame);\n"
                      "  for (let person of scene.persons) {\n"
                      "    person.description = person.action + \" at \" + scene.location;\n"
                      "    if (person.employeeID) { deviceControl.send(person); }\n"
                      "  }\n"
                      "  emailSender.send(scene);\n"
                      "  storage.send(scene);\n"
                      "});"}),
    [](const ::testing::TestParamInfo<RoundTripCase>& tpi) { return tpi.param.name; });

TEST(PrinterTest, PrintsOnlyTheParenthesesPrecedenceNeeds) {
  struct Case {
    const char* source;
    const char* printed;
  };
  const Case kCases[] = {
      {"x = a + b * c;", "x = a + b * c;\n"},
      {"x = (a + b) * c;", "x = (a + b) * c;\n"},
      {"x = a - (b - c);", "x = a - (b - c);\n"},
      {"x = (a - b) - c;", "x = a - b - c;\n"},
      {"x = (a ?? b) || c;", "x = (a ?? b) || c;\n"},
      {"x = (a || b) ?? c;", "x = a || b ?? c;\n"},
      {"x = !(!a);", "x = !!a;\n"},
      {"x = !(a && b);", "x = !(a && b);\n"},
      {"x = -(-a);", "x = - -a;\n"},
      {"x = +(+a);", "x = + +a;\n"},
      {"x = -(--a);", "x = - --a;\n"},
      {"x = +(++a);", "x = + ++a;\n"},
      {"x = -(+a);", "x = -+a;\n"},
      {"x = typeof (typeof a);", "x = typeof typeof a;\n"},
      {"x = (-a) ** 2;", "x = -a ** 2;\n"},
      {"x = (a++).b;", "x = (a++).b;\n"},
      {"x = -(a++);", "x = -a++;\n"},
      {"x = a ? (b ? c : d) : (e ? f : g);", "x = a ? b ? c : d : e ? f : g;\n"},
      {"x = (a ? b : c) ? d : e;", "x = (a ? b : c) ? d : e;\n"},
      {"x = (a = b);", "x = a = b;\n"},
      {"x = (a, b);", "x = (a, b);\n"},
      {"f((a, b), c);", "f((a, b), c);\n"},
      {"x = (y => y)(1);", "x = ((y) => y)(1);\n"},
      {"x = (await a).b;", "x = (await a).b;\n"},
      {"x = await (await a);", "x = await await a;\n"},
      {"x = [...(a, b)];", "x = [...(a, b)];\n"},
      {"x = new (a.b)();", "x = new a.b();\n"},
      {"x = new (f())();", "x = new (f())();\n"},
      {"x = new (a?.b)();", "x = new (a?.b)();\n"},
      {"x = new (a.if)();", "x = new (a.if)();\n"},
      {"(function() {})();", "(function() {}());\n"},
      {"(async function() {})();", "(async function() {}());\n"},
      {"({ a: 1 }).b;", "({ a: 1 }.b);\n"},
      {"f = () => ({ a: 1 }).b;", "f = () => ({ a: 1 }.b);\n"},
      {"functional();", "functional();\n"},
      {"for (let v of (a, b)) {}", "for (let v of (a, b)) {}\n"},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(Reprint(c.source), c.printed) << c.source;
    ExpectRoundTrip(c.source);
  }
}

std::string Repeat(std::string_view unit, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += unit;
  }
  return out;
}

// A 500-level prefix or conditional chain prints without parentheses, so its
// re-parse nests no deeper than its source did.
TEST(PrinterTest, DeepChainsPrintWithoutParentheses) {
  const std::string kChains[] = {
      "x = " + Repeat("!", 500) + "a;",
      "x = " + Repeat("- ", 500) + "a;",
      "x = " + Repeat("typeof ", 500) + "a;",
      "x = " + Repeat("c ? ", 500) + "1" + Repeat(" : 0", 500) + ";",
      "x = " + Repeat("c ? 0 : ", 500) + "1;",
  };
  for (const std::string& source : kChains) {
    const std::string printed = Reprint(source);
    EXPECT_EQ(printed.find('('), std::string::npos) << printed.substr(0, 80);
    ExpectRoundTrip(source);
  }
}

TEST(PrinterTest, ExpressionStatementWithLeadingObjectIsParenthesized) {
  auto program = ParseProgram("({ a: 1 });");
  ASSERT_TRUE(program.ok());
  std::string printed = PrintProgram(*program);
  auto again = ParseProgram(printed);
  ASSERT_TRUE(again.ok()) << printed;
}

TEST(PrinterTest, PrintSingleExpressionNode) {
  NodePtr call = MakeCall(MakeMember(MakeIdentifier("storage"), "send"),
                          {MakeIdentifier("scene")});
  EXPECT_EQ(PrintNode(call), "storage.send(scene)");
}

TEST(PrinterTest, SynthesizedDiftCallPrints) {
  // __dift.invoke(storage, "send", [scene])
  NodePtr args = MakeNode(NodeKind::kArrayLit, {MakeIdentifier("scene")});
  NodePtr call = MakeCall(MakeMember(MakeIdentifier("__dift"), "invoke"),
                          {MakeIdentifier("storage"), MakeStringLit("send"), args});
  EXPECT_EQ(PrintNode(call), "__dift.invoke(storage, \"send\", [scene])");
}

}  // namespace
}  // namespace turnstile
