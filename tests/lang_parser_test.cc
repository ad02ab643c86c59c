#include "src/lang/parser.h"

#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "src/lang/printer.h"

namespace turnstile {
namespace {

Program MustParse(std::string_view source) {
  auto result = ParseProgram(source);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) {
    return Program{MakeNode(NodeKind::kProgram), "<error>", 0};
  }
  return std::move(result).value();
}

// Returns the first statement of the parsed program.
NodePtr FirstStmt(std::string_view source) {
  Program p = MustParse(source);
  EXPECT_FALSE(p.root->children.empty());
  return p.root->children.empty() ? MakeNode(NodeKind::kEmpty) : p.root->children[0];
}

// Returns the expression of the first (expression) statement.
NodePtr FirstExpr(std::string_view source) {
  NodePtr stmt = FirstStmt(source);
  EXPECT_EQ(stmt->kind, NodeKind::kExprStmt);
  return stmt->children.empty() ? MakeNode(NodeKind::kEmpty) : stmt->children[0];
}

TEST(ParserTest, VarDeclWithMultipleDeclarators) {
  NodePtr decl = FirstStmt("let a = 1, b, c = a;");
  ASSERT_EQ(decl->kind, NodeKind::kVarDecl);
  EXPECT_EQ(decl->str, "let");
  ASSERT_EQ(decl->children.size(), 3u);
  EXPECT_EQ(decl->children[0]->str, "a");
  EXPECT_EQ(decl->children[0]->children[0]->kind, NodeKind::kNumberLit);
  EXPECT_TRUE(decl->children[1]->children.empty());
  EXPECT_EQ(decl->children[2]->children[0]->kind, NodeKind::kIdentifier);
}

TEST(ParserTest, BinaryPrecedence) {
  NodePtr expr = FirstExpr("1 + 2 * 3;");
  ASSERT_EQ(expr->kind, NodeKind::kBinaryExpr);
  EXPECT_EQ(expr->str, "+");
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kBinaryExpr);
  EXPECT_EQ(expr->children[1]->str, "*");
}

TEST(ParserTest, LeftAssociativity) {
  NodePtr expr = FirstExpr("a - b - c;");
  ASSERT_EQ(expr->kind, NodeKind::kBinaryExpr);
  // (a - b) - c
  EXPECT_EQ(expr->children[0]->kind, NodeKind::kBinaryExpr);
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kIdentifier);
}

TEST(ParserTest, LogicalVsBinaryKinds) {
  NodePtr expr = FirstExpr("a && b || c ?? d;");
  EXPECT_EQ(expr->kind, NodeKind::kLogicalExpr);
  NodePtr cmp = FirstExpr("a == b;");
  EXPECT_EQ(cmp->kind, NodeKind::kBinaryExpr);
}

TEST(ParserTest, AssignmentIsRightAssociative) {
  NodePtr expr = FirstExpr("a = b = 1;");
  ASSERT_EQ(expr->kind, NodeKind::kAssignExpr);
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kAssignExpr);
}

TEST(ParserTest, CompoundAssignmentOperators) {
  EXPECT_EQ(FirstExpr("a += 1;")->str, "+=");
  EXPECT_EQ(FirstExpr("a *= 2;")->str, "*=");
}

TEST(ParserTest, InvalidAssignmentTargetFails) {
  EXPECT_FALSE(ParseProgram("1 = 2;").ok());
  EXPECT_FALSE(ParseProgram("a + b = 2;").ok());
}

TEST(ParserTest, MemberAndIndexChains) {
  NodePtr expr = FirstExpr("a.b[c].d;");
  ASSERT_EQ(expr->kind, NodeKind::kMemberExpr);
  EXPECT_EQ(expr->str, "d");
  NodePtr index = expr->children[0];
  ASSERT_EQ(index->kind, NodeKind::kIndexExpr);
  NodePtr inner = index->children[0];
  ASSERT_EQ(inner->kind, NodeKind::kMemberExpr);
  EXPECT_EQ(inner->str, "b");
}

TEST(ParserTest, CallWithArgumentsAndSpread) {
  NodePtr expr = FirstExpr("f(1, ...rest, g());");
  ASSERT_EQ(expr->kind, NodeKind::kCallExpr);
  ASSERT_EQ(expr->children.size(), 4u);  // callee + 3 args
  EXPECT_EQ(expr->children[2]->kind, NodeKind::kSpreadElement);
  EXPECT_EQ(expr->children[3]->kind, NodeKind::kCallExpr);
}

TEST(ParserTest, MethodCallOnMember) {
  NodePtr expr = FirstExpr("storage.send(scene);");
  ASSERT_EQ(expr->kind, NodeKind::kCallExpr);
  EXPECT_EQ(expr->children[0]->kind, NodeKind::kMemberExpr);
  EXPECT_EQ(expr->children[0]->str, "send");
}

TEST(ParserTest, ArrowFunctionSingleParam) {
  NodePtr expr = FirstExpr("x => x + 1;");
  ASSERT_EQ(expr->kind, NodeKind::kArrowFunction);
  EXPECT_EQ(expr->children[0]->children.size(), 1u);
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kBinaryExpr);
}

TEST(ParserTest, ArrowFunctionParenParamsAndBlockBody) {
  NodePtr expr = FirstExpr("(a, b) => { return a + b; };");
  ASSERT_EQ(expr->kind, NodeKind::kArrowFunction);
  EXPECT_EQ(expr->children[0]->children.size(), 2u);
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kBlockStmt);
}

TEST(ParserTest, ParenthesizedExpressionIsNotArrow) {
  NodePtr expr = FirstExpr("(a + b) * c;");
  EXPECT_EQ(expr->kind, NodeKind::kBinaryExpr);
  EXPECT_EQ(expr->str, "*");
}

// The arrow-head test looks at the token after the `(`'s own matching `)`,
// not after the first `)` or the last one.
TEST(ParserTest, ArrowHeadIsDecidedByTheMatchingParen) {
  NodePtr call = FirstExpr("(f(a))((b) => b);");
  ASSERT_EQ(call->kind, NodeKind::kCallExpr);
  EXPECT_EQ(call->children[0]->kind, NodeKind::kCallExpr);
  EXPECT_EQ(call->children[1]->kind, NodeKind::kArrowFunction);

  NodePtr arrow = FirstExpr("(a, b) => (a)(b);");
  ASSERT_EQ(arrow->kind, NodeKind::kArrowFunction);
  EXPECT_EQ(arrow->children[1]->kind, NodeKind::kCallExpr);
}

TEST(ParserTest, NestedArrowClosures) {
  NodePtr expr = FirstExpr("x => (y => x + y);");
  ASSERT_EQ(expr->kind, NodeKind::kArrowFunction);
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kArrowFunction);
}

TEST(ParserTest, FunctionDeclarationAndExpression) {
  NodePtr decl = FirstStmt("function add(a, b) { return a + b; }");
  ASSERT_EQ(decl->kind, NodeKind::kFunctionDecl);
  EXPECT_EQ(decl->str, "add");

  NodePtr expr = FirstExpr("(function(x) { return x; });");
  EXPECT_EQ(expr->kind, NodeKind::kFunctionExpr);
}

TEST(ParserTest, RestParameter) {
  NodePtr decl = FirstStmt("function f(a, ...rest) {}");
  NodePtr params = decl->children[0];
  ASSERT_EQ(params->children.size(), 2u);
  EXPECT_EQ(params->children[1]->kind, NodeKind::kRestParam);
  EXPECT_EQ(params->children[1]->str, "rest");
}

TEST(ParserTest, ObjectLiteralForms) {
  NodePtr expr = FirstExpr(R"(({ a: 1, "b c": 2, [k]: 3, short, method(x) { return x; } });)");
  ASSERT_EQ(expr->kind, NodeKind::kObjectLit);
  ASSERT_EQ(expr->children.size(), 5u);
  EXPECT_EQ(expr->children[0]->str, "a");
  EXPECT_EQ(expr->children[1]->str, "b c");
  EXPECT_EQ(expr->children[2]->num, 1);  // computed
  EXPECT_EQ(expr->children[3]->children[0]->kind, NodeKind::kIdentifier);
  EXPECT_EQ(expr->children[4]->children[0]->kind, NodeKind::kFunctionExpr);
}

TEST(ParserTest, ArrayLiteralWithSpreadAndTrailingComma) {
  NodePtr expr = FirstExpr("[1, ...xs, 2,];");
  ASSERT_EQ(expr->kind, NodeKind::kArrayLit);
  EXPECT_EQ(expr->children.size(), 3u);
  EXPECT_EQ(expr->children[1]->kind, NodeKind::kSpreadElement);
}

TEST(ParserTest, ClassWithExtendsAndMethods) {
  NodePtr cls = FirstStmt(R"(class Camera extends Device {
    constructor(id) { this.id = id; }
    snap() { return this.id; }
  })");
  ASSERT_EQ(cls->kind, NodeKind::kClassDecl);
  EXPECT_EQ(cls->str, "Camera");
  EXPECT_EQ(cls->children[0]->str, "Device");
  ASSERT_EQ(cls->children.size(), 3u);
  EXPECT_EQ(cls->children[1]->str, "constructor");
  EXPECT_EQ(cls->children[2]->str, "snap");
}

TEST(ParserTest, NewExpression) {
  NodePtr expr = FirstExpr("new Promise(cb);");
  ASSERT_EQ(expr->kind, NodeKind::kNewExpr);
  EXPECT_EQ(expr->children[0]->str, "Promise");
  EXPECT_EQ(expr->children.size(), 2u);
}

TEST(ParserTest, IfElseChain) {
  NodePtr stmt = FirstStmt("if (a) { f(); } else if (b) { g(); } else { h(); }");
  ASSERT_EQ(stmt->kind, NodeKind::kIfStmt);
  ASSERT_EQ(stmt->children.size(), 3u);
  EXPECT_EQ(stmt->children[2]->kind, NodeKind::kIfStmt);
}

TEST(ParserTest, ForClassic) {
  NodePtr stmt = FirstStmt("for (let i = 0; i < 10; i++) { use(i); }");
  ASSERT_EQ(stmt->kind, NodeKind::kForStmt);
  EXPECT_EQ(stmt->children[0]->kind, NodeKind::kVarDecl);
  EXPECT_EQ(stmt->children[1]->kind, NodeKind::kBinaryExpr);
  EXPECT_EQ(stmt->children[2]->kind, NodeKind::kUpdateExpr);
}

TEST(ParserTest, ForWithEmptyParts) {
  NodePtr stmt = FirstStmt("for (;;) { break; }");
  ASSERT_EQ(stmt->kind, NodeKind::kForStmt);
  EXPECT_EQ(stmt->children[0]->kind, NodeKind::kEmpty);
  EXPECT_EQ(stmt->children[1]->kind, NodeKind::kEmpty);
  EXPECT_EQ(stmt->children[2]->kind, NodeKind::kEmpty);
}

TEST(ParserTest, ForOf) {
  NodePtr stmt = FirstStmt("for (let person of scene.persons) { use(person); }");
  ASSERT_EQ(stmt->kind, NodeKind::kForOfStmt);
  EXPECT_EQ(stmt->str, "let");
  EXPECT_EQ(stmt->children[0]->str, "person");
  EXPECT_EQ(stmt->children[1]->kind, NodeKind::kMemberExpr);
}

TEST(ParserTest, TryCatchFinally) {
  NodePtr stmt = FirstStmt("try { f(); } catch (e) { g(e); } finally { h(); }");
  ASSERT_EQ(stmt->kind, NodeKind::kTryStmt);
  EXPECT_EQ(stmt->children[1]->str, "e");
  EXPECT_EQ(stmt->children[2]->kind, NodeKind::kBlockStmt);
  EXPECT_EQ(stmt->children[3]->kind, NodeKind::kBlockStmt);
}

TEST(ParserTest, AwaitExpression) {
  NodePtr stmt = FirstStmt("async function f() { let x = await g(); }");
  NodePtr body = stmt->children[1];
  NodePtr decl = body->children[0];
  EXPECT_EQ(decl->children[0]->children[0]->kind, NodeKind::kAwaitExpr);
}

TEST(ParserTest, ConditionalExpression) {
  NodePtr expr = FirstExpr("a ? b : c;");
  ASSERT_EQ(expr->kind, NodeKind::kConditionalExpr);
  EXPECT_EQ(expr->children.size(), 3u);
}

TEST(ParserTest, UnaryAndUpdate) {
  EXPECT_EQ(FirstExpr("!a;")->kind, NodeKind::kUnaryExpr);
  EXPECT_EQ(FirstExpr("typeof a;")->str, "typeof");
  NodePtr prefix = FirstExpr("++a;");
  EXPECT_EQ(prefix->kind, NodeKind::kUpdateExpr);
  EXPECT_EQ(prefix->num, 1);
  NodePtr postfix = FirstExpr("a--;");
  EXPECT_EQ(postfix->num, 0);
}

TEST(ParserTest, OptionalChaining) {
  NodePtr expr = FirstExpr("a?.b;");
  ASSERT_EQ(expr->kind, NodeKind::kMemberExpr);
  EXPECT_EQ(expr->num, 1);
}

TEST(ParserTest, SequenceExpression) {
  NodePtr expr = FirstExpr("(a, b, c);");
  ASSERT_EQ(expr->kind, NodeKind::kSequenceExpr);
  EXPECT_EQ(expr->children.size(), 3u);
}

TEST(ParserTest, NodeIdsAreUniqueAndDense) {
  Program p = MustParse("let a = 1; function f(x) { return x + a; }");
  std::vector<bool> seen(static_cast<size_t>(p.node_count), false);
  int count = 0;
  ForEachNode(p.root, [&](const NodePtr& n) {
    ASSERT_GE(n->id, 0);
    ASSERT_LT(n->id, p.node_count);
    EXPECT_FALSE(seen[static_cast<size_t>(n->id)]) << "duplicate id " << n->id;
    seen[static_cast<size_t>(n->id)] = true;
    ++count;
  });
  EXPECT_EQ(count, p.node_count);
}

TEST(ParserTest, RenumberAfterSynthesis) {
  Program p = MustParse("let a = 1;");
  p.root->children.push_back(MakeNode(NodeKind::kExprStmt, {MakeIdentifier("a")}));
  int n = RenumberNodes(&p);
  EXPECT_EQ(n, p.node_count);
  ForEachNode(p.root, [&](const NodePtr& node) { EXPECT_GE(node->id, 0); });
}

TEST(ParserTest, SyntaxErrorsAreReportedWithLocation) {
  auto result = ParseProgram("let = 3;", "app.js");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("app.js"), std::string::npos);
}

// The exact diagnostic texts: `name:line:col: what (got 'spelling')`, where
// the spelling is the offending token's source text (a string literal's
// decoded value; '' at end of input). Lexer errors pass through unprefixed.
TEST(ParserTest, ErrorTextsAreExact) {
  struct Case {
    const char* source;
    const char* error;
  };
  const Case kCases[] = {
      {"let = 3;", "app.js:1:5: expected variable name (got '=')"},
      {"f(1", "app.js:1:4: expected ')' (got '')"},
      {"f(1 2)", "app.js:1:5: expected ')' (got '2')"},
      {"f(1 0x1F)", "app.js:1:5: expected ')' (got '0x1F')"},
      {"f(1 'a\\tb')", "app.js:1:5: expected ')' (got 'a\tb')"},
      {"f(1\n  \"q\")", "app.js:2:3: expected ')' (got 'q')"},
      {"if (a { }", "app.js:1:7: expected ')' (got '{')"},
      {"while a", "app.js:1:7: expected '(' (got 'a')"},
      {"for (x; y) {}", "app.js:1:10: expected ';' (got ')')"},
      {"x[1;", "app.js:1:4: expected ']' (got ';')"},
      {"x ? y", "app.js:1:6: expected ':' (got '')"},
      {"x = {a: 1;", "app.js:1:10: expected '}' (got ';')"},
      {"x = [1 2]", "app.js:1:8: expected ']' (got '2')"},
      {"(a, b) => ", "app.js:1:11: unexpected end of input in expression (got '')"},
      {"x => ;", "app.js:1:6: unexpected token in expression (got ';')"},
      {"1 = 2;", "app.js:1:3: invalid assignment target (got '=')"},
      {"a + b = c;", "app.js:1:7: invalid assignment target (got '=')"},
      {"f() += 1;", "app.js:1:5: invalid assignment target (got '+=')"},
      {"let x = let;", "app.js:1:9: unexpected keyword 'let' in expression (got 'let')"},
      {"x = in y;", "app.js:1:5: unexpected keyword 'in' in expression (got 'in')"},
      {"x = async + 1;", "app.js:1:5: unexpected keyword 'async' in expression (got 'async')"},
      {")", "app.js:1:1: unexpected token in expression (got ')')"},
      {"a.", "app.js:1:3: expected property name (got '')"},
      {"a?.1", "app.js:1:4: expected property name (got '1')"},
      {"x = {1: 2};", "app.js:1:6: expected property name (got '1')"},
      {"new a.if()", "app.js:1:7: expected property name after '.' (got 'if')"},
      {"function (x) {}", "app.js:1:10: expected function name (got '(')"},
      {"function f(1) {}", "app.js:1:12: expected parameter name (got '1')"},
      {"function f(...1) {}", "app.js:1:15: expected rest parameter name (got '1')"},
      {"function f() {", "app.js:1:15: unterminated block (got '')"},
      {"class { }", "app.js:1:7: expected class name (got '{')"},
      {"class A extends 1 {}", "app.js:1:17: expected superclass name (got '1')"},
      {"class A { 1() {} }", "app.js:1:11: expected method name (got '1')"},
      {"class A { m() {}", "app.js:1:17: unterminated class body (got '')"},
      {"try {} catch (1) {}", "app.js:1:15: expected catch parameter (got '1')"},
      {"let x = 1, ;", "app.js:1:12: expected variable name (got ';')"},
      {"a # b", "unexpected character '#' at 1:3"},
      {"x = 'abc", "unterminated string literal at 1:9"},
  };
  for (const Case& c : kCases) {
    auto result = ParseProgram(c.source, "app.js");
    ASSERT_FALSE(result.ok()) << c.source;
    EXPECT_EQ(result.status().message(), c.error) << c.source;
  }
}

TEST(ParserTest, NestingCapErrorTextIsExact) {
  std::string parens = "x = " + std::string(600, '(') + "1" + std::string(600, ')');
  auto result = ParseProgram(parens, "deep.js");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "deep.js:1:515: nesting deeper than 512 levels (got '(')");
  std::string blocks = std::string(600, '{') + std::string(600, '}');
  result = ParseProgram(blocks, "deep.js");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "deep.js:1:513: nesting deeper than 512 levels (got '{')");
}

// Every binary operator parses to its kind and spelling, with the
// precedence and associativity of the level it sits at.
TEST(ParserTest, EveryBinaryOperatorAtItsLevel) {
  struct Case {
    const char* op;
    NodeKind kind;
  };
  const Case kLevels[][4] = {
      {{"??", NodeKind::kLogicalExpr}},
      {{"||", NodeKind::kLogicalExpr}},
      {{"&&", NodeKind::kLogicalExpr}},
      {{"|", NodeKind::kBinaryExpr}},
      {{"^", NodeKind::kBinaryExpr}},
      {{"&", NodeKind::kBinaryExpr}},
      {{"===", NodeKind::kBinaryExpr}, {"!==", NodeKind::kBinaryExpr},
       {"==", NodeKind::kBinaryExpr}, {"!=", NodeKind::kBinaryExpr}},
      {{"<", NodeKind::kBinaryExpr}, {">", NodeKind::kBinaryExpr},
       {"<=", NodeKind::kBinaryExpr}, {">=", NodeKind::kBinaryExpr}},
      {{"<<", NodeKind::kBinaryExpr}, {">>", NodeKind::kBinaryExpr}},
      {{"+", NodeKind::kBinaryExpr}, {"-", NodeKind::kBinaryExpr}},
      {{"*", NodeKind::kBinaryExpr}, {"/", NodeKind::kBinaryExpr},
       {"%", NodeKind::kBinaryExpr}},
      {{"**", NodeKind::kBinaryExpr}},
  };
  const size_t levels = std::size(kLevels);
  for (size_t lo = 0; lo < levels; ++lo) {
    for (const Case& low : kLevels[lo]) {
      if (low.op == nullptr) {
        continue;
      }
      // Left-associative within a level.
      NodePtr chain = FirstExpr(std::string("a ") + low.op + " b " + low.op + " c;");
      EXPECT_EQ(chain->kind, low.kind) << low.op;
      EXPECT_EQ(chain->str, low.op);
      EXPECT_EQ(chain->children[0]->str, low.op) << low.op;
      EXPECT_EQ(chain->children[1]->str, "c") << low.op;
      for (size_t hi = lo + 1; hi < levels; ++hi) {
        const char* high = kLevels[hi][0].op;
        NodePtr left = FirstExpr(std::string("a ") + high + " b " + low.op + " c;");
        EXPECT_EQ(left->str, low.op) << high << " vs " << low.op;
        EXPECT_EQ(left->children[0]->str, high) << high << " vs " << low.op;
        NodePtr right = FirstExpr(std::string("a ") + low.op + " b " + high + " c;");
        EXPECT_EQ(right->str, low.op) << low.op << " vs " << high;
        EXPECT_EQ(right->children[1]->str, high) << low.op << " vs " << high;
      }
    }
  }
  NodePtr in = FirstExpr("a in b < c;");
  EXPECT_EQ(in->str, "<");
  EXPECT_EQ(in->children[0]->str, "in");
}

TEST(ParserTest, EveryAssignmentOperator) {
  const char* kOps[] = {"=",  "+=", "-=", "*=", "/=", "%=",  "&&=", "||=",
                        "?\?=", "&=", "|=", "^=", "<<=", ">>=", "**="};
  for (const char* op : kOps) {
    NodePtr assign = FirstExpr(std::string("a ") + op + " b " + op + " c;");
    EXPECT_EQ(assign->kind, NodeKind::kAssignExpr) << op;
    EXPECT_EQ(assign->str, op);
    EXPECT_EQ(assign->children[1]->kind, NodeKind::kAssignExpr) << op;
    EXPECT_EQ(assign->children[1]->str, op);
  }
}

TEST(ParserTest, KeywordsAsPropertyAndMethodNames) {
  NodePtr member = FirstExpr("a.if.class?.new;");
  EXPECT_EQ(member->str, "new");
  EXPECT_EQ(member->children[0]->str, "class");
  EXPECT_EQ(member->children[0]->children[0]->str, "if");
  NodePtr object = FirstExpr("({ let: 1, typeof, this() {} });");
  ASSERT_EQ(object->children.size(), 3u);
  EXPECT_EQ(object->children[0]->str, "let");
  EXPECT_EQ(object->children[1]->str, "typeof");
  EXPECT_EQ(object->children[1]->children[0]->kind, NodeKind::kIdentifier);
  EXPECT_EQ(object->children[2]->children[0]->kind, NodeKind::kFunctionExpr);
  NodePtr cls = FirstStmt("class A { static() {} async delete() {} }");
  EXPECT_EQ(cls->children[1]->str, "static");
  EXPECT_EQ(cls->children[2]->str, "delete");
}

TEST(ParserTest, StringAndNumberLiteralValues) {
  NodePtr array = FirstExpr("['a\\n', \"q\\\"\", `t`, 0x1F, 1e3, 2.5, 123456789012345];");
  ASSERT_EQ(array->children.size(), 7u);
  EXPECT_EQ(array->children[0]->str, "a\n");
  EXPECT_EQ(array->children[1]->str, "q\"");
  EXPECT_EQ(array->children[2]->str, "t");
  EXPECT_EQ(array->children[3]->num, 31);
  EXPECT_EQ(array->children[4]->num, 1000);
  EXPECT_EQ(array->children[5]->num, 2.5);
  EXPECT_EQ(array->children[6]->num, 123456789012345.0);
}

TEST(ParserTest, NodeLocationsAreTokenStarts) {
  Program p = MustParse("let a = 1;\n  f(a)\n    .b;");
  NodePtr decl = p.root->children[0];
  EXPECT_EQ(decl->loc.ToString(), "1:1");
  EXPECT_EQ(decl->children[0]->loc.ToString(), "1:5");
  EXPECT_EQ(decl->children[0]->children[0]->loc.ToString(), "1:9");
  NodePtr member = p.root->children[1]->children[0];
  EXPECT_EQ(member->kind, NodeKind::kMemberExpr);
  // A node takes the location of the token the parser stood on when it made
  // the node: a member's is its property name, a call's its `(`, an
  // operator's the token after the operator.
  EXPECT_EQ(member->loc.ToString(), "3:6");
  EXPECT_EQ(member->children[0]->loc.ToString(), "2:4");
  EXPECT_EQ(member->children[0]->children[0]->loc.ToString(), "2:3");
  NodePtr sum = FirstExpr("a +\n b[c];");
  EXPECT_EQ(sum->loc.ToString(), "2:2");
  EXPECT_EQ(sum->children[1]->loc.ToString(), "2:4");
}

std::string Repeat(std::string_view unit, int times) {
  std::string out;
  out.reserve(unit.size() * static_cast<size_t>(times));
  for (int i = 0; i < times; ++i) {
    out += unit;
  }
  return out;
}

// One self-nesting form: `levels` copies of `open`, then `inner`, then as
// many copies of `close`.
struct NestingForm {
  const char* name;
  const char* prefix;
  const char* open;
  const char* inner;
  const char* close;
};

constexpr NestingForm kNestingForms[] = {
    {"parens", "let x = ", "(", "1", ")"},
    {"arrays", "let x = ", "[", "1", "]"},
    {"objects", "let x = ", "{a: ", "1", "}"},
    {"unary", "let x = ", "!", "1", ""},
    {"new", "let x = ", "new ", "X", ""},
    {"arrows", "let f = ", "x => ", "1", ""},
    {"ternaries", "let x = ", "c ? 1 : ", "2", ""},
    {"blocks", "", "{", "", "}"},
    {"functions", "", "function f() {", "", "}"},
    {"ifs", "", "if (c) ", "x;", ""},
};

std::string Nested(const NestingForm& form, int levels) {
  return std::string(form.prefix) + Repeat(form.open, levels) + form.inner +
         Repeat(form.close, levels);
}

TEST(ParserTest, HostileNestingIsAParseErrorNotAStackOverflow) {
  for (const NestingForm& form : kNestingForms) {
    auto result = ParseProgram(Nested(form, 100000), "deep.js");
    ASSERT_FALSE(result.ok()) << form.name;
    const std::string& message = result.status().message();
    EXPECT_EQ(message.rfind("deep.js:1:", 0), 0u) << form.name << ": " << message;
    EXPECT_NE(message.find("nesting deeper than " + std::to_string(kMaxParseNesting) + " levels"),
              std::string::npos)
        << form.name << ": " << message;
  }
}

TEST(ParserTest, NestingBelowTheCapParses) {
  for (const NestingForm& form : kNestingForms) {
    auto result = ParseProgram(Nested(form, kMaxParseNesting / 2), "deep.js");
    EXPECT_TRUE(result.ok()) << form.name << ": " << result.status().ToString();
  }
}

// A loop that wraps the operand built so far in a new node (`a + b + c`,
// `o.a.b`, `f()()`, `a[0][0]`) nests the tree one level per link, so a long
// chain is refused like any other deep nesting instead of building a tree
// too deep for the recursive passes that walk it.
TEST(ParserTest, HostileChainsAreAParseError) {
  for (int terms : {10000, 100000}) {
    const std::pair<const char*, std::string> kChains[] = {
        {"sum", "x = " + Repeat("1 + ", terms) + "1;"},
        {"and", "x = " + Repeat("1 && ", terms) + "1;"},
        {"members", "x = o" + Repeat(".a", terms) + ";"},
        {"optional-members", "x = o" + Repeat("?.a", terms) + ";"},
        {"calls", "x = f" + Repeat("()", terms) + ";"},
        {"indexes", "x = a" + Repeat("[0]", terms) + ";"},
        {"new-members", "x = new o" + Repeat(".a", terms) + "();"},
        {"mixed", "x = 1" + Repeat(" * 2 + 3", terms / 2) + ";"},
    };
    for (const auto& [name, source] : kChains) {
      auto result = ParseProgram(source, "deep.js");
      ASSERT_FALSE(result.ok()) << name << " x" << terms;
      const std::string& message = result.status().message();
      EXPECT_EQ(message.rfind("deep.js:1:", 0), 0u) << name << ": " << message;
      EXPECT_NE(message.find("nesting deeper than " + std::to_string(kMaxParseNesting) + " levels"),
                std::string::npos)
          << name << ": " << message;
    }
  }
  auto sum = ParseProgram("x = " + Repeat("1 + ", 600) + "1;", "deep.js");
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().message(), "deep.js:1:2043: nesting deeper than 512 levels (got '+')");
  auto members = ParseProgram("x = o" + Repeat(".a", 600) + ";", "deep.js");
  ASSERT_FALSE(members.ok());
  EXPECT_EQ(members.status().message(), "deep.js:1:1024: nesting deeper than 512 levels (got '.')");
}

TEST(ParserTest, ChainsBelowTheCapParse) {
  const int terms = kMaxParseNesting / 2;
  for (const std::string& source :
       {"x = " + Repeat("1 + ", terms) + "1;", "x = o" + Repeat(".a", terms) + ";",
        "x = f" + Repeat("()", terms) + ";", "x = a" + Repeat("[0]", terms) + ";",
        "x = new o" + Repeat(".a", terms) + "();"}) {
    auto result = ParseProgram(source, "chain.js");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  // A flat sequence is not a chain: its terms are siblings.
  EXPECT_TRUE(ParseProgram("x = (" + Repeat("1, ", 100000) + "1);").ok());
}

TEST(ParserTest, PaperFigure2aParses) {
  // The FaceRecognizer snippet from the paper (Fig. 2a), adapted to balanced
  // braces.
  const char* source = R"(
    socket.on("data", frame => {
      const scene = analyzeVideoFrame(frame);
      for (let person of scene.persons) {
        person.description = person.action + " at " + scene.location;
        if (person.employeeID) {
          deviceControl.send(person);
        }
      }
      emailSender.send(scene);
      storage.send(scene);
    });
  )";
  Program p = MustParse(source);
  EXPECT_GT(p.node_count, 30);
}

}  // namespace
}  // namespace turnstile
