// Scope/symbol resolution: bindings, shadowing, closures, hoisting, `this`.
#include "src/analysis/scope.h"

#include <gtest/gtest.h>

#include "src/lang/parser.h"

namespace turnstile {
namespace {

ResolvedProgram Resolve(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  static std::vector<Program> keepalive;  // resolver stores a Program pointer
  keepalive.push_back(std::move(program).value());
  return ResolveScopes(keepalive.back());
}

// Binding node of the identifier USE with the given name and line.
int BindingOfUse(const ResolvedProgram& resolved, const std::string& name, int line) {
  int result = -1;
  ForEachNode(resolved.program->root, [&](const NodePtr& node) {
    if (node->kind == NodeKind::kIdentifier && node->str == name && node->loc.line == line) {
      int binding = resolved.UseBinding(node->id);
      if (binding >= 0) {
        result = binding;
      }
    }
  });
  return result;
}

TEST(ScopeTest, LocalBindingResolution) {
  ResolvedProgram r = Resolve("let a = 1;\nlet b = a + 2;");
  EXPECT_GE(BindingOfUse(r, "a", 2), 0);
}

TEST(ScopeTest, UnboundIdentifiersHaveNoEntry) {
  ResolvedProgram r = Resolve("console.log(mystery);");
  EXPECT_EQ(BindingOfUse(r, "mystery", 1), -1);
  EXPECT_EQ(BindingOfUse(r, "console", 1), -1);  // builtin: unresolved
}

TEST(ScopeTest, BlockShadowing) {
  ResolvedProgram r = Resolve(
      "let x = 1;\n"
      "{\n"
      "  let x = 2;\n"
      "  use(x);\n"      // line 4: inner x
      "}\n"
      "use(x);\n");      // line 6: outer x
  int inner = BindingOfUse(r, "x", 4);
  int outer = BindingOfUse(r, "x", 6);
  EXPECT_GE(inner, 0);
  EXPECT_GE(outer, 0);
  EXPECT_NE(inner, outer);
}

TEST(ScopeTest, ClosureCapturesOuterBinding) {
  ResolvedProgram r = Resolve(
      "let captured = 1;\n"
      "let f = () => {\n"
      "  return captured;\n"  // line 3
      "};\n");
  EXPECT_GE(BindingOfUse(r, "captured", 3), 0);
}

TEST(ScopeTest, ParameterShadowsOuter) {
  ResolvedProgram r = Resolve(
      "let v = 1;\n"
      "function f(v) {\n"
      "  return v;\n"  // line 3: the parameter
      "}\n"
      "use(v);\n");    // line 5: the outer v
  EXPECT_NE(BindingOfUse(r, "v", 3), BindingOfUse(r, "v", 5));
}

TEST(ScopeTest, FunctionDeclarationsHoistWithinScope) {
  // helper is used before it is declared — the idiomatic JS pattern.
  ResolvedProgram r = Resolve(
      "function caller() {\n"
      "  return helper(1);\n"  // line 2
      "}\n"
      "function helper(x) {\n"
      "  return x;\n"
      "}\n");
  int use = BindingOfUse(r, "helper", 2);
  ASSERT_GE(use, 0);
  // The use resolves to the hoisted declaration binding.
  auto decl_binding = [&]() {
    for (int ast = 0; ast < r.ast_count; ++ast) {
      const NodePtr& node = r.ast_by_id[static_cast<size_t>(ast)];
      if (node != nullptr && node->kind == NodeKind::kFunctionDecl && node->str == "helper") {
        return r.DeclBinding(ast);
      }
    }
    return -1;
  }();
  EXPECT_EQ(use, decl_binding);
}

TEST(ScopeTest, HoistingIsPerScope) {
  // The inner helper shadows the outer one for uses inside f.
  ResolvedProgram r = Resolve(
      "function helper() { return 1; }\n"
      "function f() {\n"
      "  let v = helper();\n"         // line 3: inner helper (hoisted)
      "  function helper() { return 2; }\n"
      "  return v;\n"
      "}\n"
      "use(helper);\n");              // line 7: outer helper
  EXPECT_NE(BindingOfUse(r, "helper", 3), BindingOfUse(r, "helper", 7));
}

TEST(ScopeTest, ThisResolvesToNearestNonArrowFunction) {
  ResolvedProgram r = Resolve(
      "function outer() {\n"
      "  let arrow = () => {\n"
      "    return this;\n"  // line 3: outer's this
      "  };\n"
      "  return this;\n"    // line 5: outer's this
      "}\n");
  int arrow_this = -1;
  int direct_this = -1;
  ForEachNode(r.program->root, [&](const NodePtr& node) {
    if (node->kind == NodeKind::kThisExpr) {
      int binding = r.UseBinding(node->id);
      if (node->loc.line == 3) {
        arrow_this = binding;
      } else if (node->loc.line == 5) {
        direct_this = binding;
      }
    }
  });
  ASSERT_GE(arrow_this, 0);
  EXPECT_EQ(arrow_this, direct_this);
}

TEST(ScopeTest, ClassMethodsAreRegistered) {
  ResolvedProgram r = Resolve(
      "class Base { ping() { return 1; } }\n"
      "class Derived extends Base { pong() { return 2; } }\n");
  ASSERT_EQ(r.classes.size(), 2u);
  EXPECT_EQ(r.classes[0].name, "Base");
  EXPECT_EQ(r.classes[1].super_name, "Base");
  EXPECT_TRUE(r.classes[0].methods.count("ping"));
  EXPECT_TRUE(r.classes[1].methods.count("pong"));
  EXPECT_FALSE(r.classes[1].methods.count("ping"));  // own methods only
}

TEST(ScopeTest, FunctionInfoHasParamsAndReturn) {
  ResolvedProgram r = Resolve("function f(a, b, ...rest) { return a; }");
  ASSERT_EQ(r.functions.size(), 1u);
  EXPECT_EQ(r.functions[0].param_bindings.size(), 3u);
  EXPECT_GE(r.functions[0].return_binding, 0);
  EXPECT_GE(r.functions[0].this_binding, 0);
}

TEST(ScopeTest, ArrowHasNoThisBinding) {
  ResolvedProgram r = Resolve("let f = x => x;");
  ASSERT_EQ(r.functions.size(), 1u);
  EXPECT_EQ(r.functions[0].this_binding, -1);
}

TEST(ScopeTest, CatchParameterIsScoped) {
  ResolvedProgram r = Resolve(
      "try { f(); } catch (e) {\n"
      "  use(e);\n"  // line 2
      "}\n");
  EXPECT_GE(BindingOfUse(r, "e", 2), 0);
}

TEST(ScopeTest, ForOfVariableIsScoped) {
  ResolvedProgram r = Resolve(
      "for (let item of list) {\n"
      "  use(item);\n"  // line 2
      "}\n");
  EXPECT_GE(BindingOfUse(r, "item", 2), 0);
  EXPECT_EQ(BindingOfUse(r, "list", 1), -1);  // unbound
}

}  // namespace
}  // namespace turnstile
