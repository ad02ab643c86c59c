#include "src/lang/parser.h"

#include <string>
#include <string_view>

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
