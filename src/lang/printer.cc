#include "src/lang/printer.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <string_view>

#include "src/lang/token.h"
#include "src/support/strings.h"

namespace turnstile {

namespace {

// Escapes a MiniScript string literal body and wraps it in double quotes.
std::string QuoteString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

class Printer {
 public:
  std::string Render(const NodePtr& node) {
    if (node->IsExpression()) {
      PrintExpr(node);
    } else {
      PrintStmt(node);
    }
    return std::move(out_);
  }

 private:
  void Emit(std::string_view text) { out_.append(text); }
  void EmitIndent() { out_.append(static_cast<size_t>(indent_) * 2, ' '); }
  void EmitLine(std::string_view text) {
    EmitIndent();
    Emit(text);
    Emit("\n");
  }

  // How tightly an expression's printed form binds, loosest first, following
  // the parser's productions. An operand printed into a slot that requires a
  // tighter form is parenthesized; nothing else is.
  enum Prec : int {
    kPrecSequence,
    kPrecAssign,  // assignments and arrows: what ParseAssignment reads
    kPrecConditional,
    kPrecBinary,  // plus the operator's binary level
    kPrecUnary = kPrecBinary + kBinaryLevels,  // prefix operators and await
    kPrecPostfix,                              // x++ x--
    kPrecCall,                                 // calls, members, indexes, new
    kPrecPrimary,
  };

  static int PrecOf(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kSequenceExpr:
        return kPrecSequence;
      case NodeKind::kAssignExpr:
      case NodeKind::kArrowFunction:
        return kPrecAssign;
      case NodeKind::kConditionalExpr:
        return kPrecConditional;
      case NodeKind::kBinaryExpr:
      case NodeKind::kLogicalExpr:
        return kPrecBinary + std::max<int>(0, Operator(TokenCode(node->str)).binary_level);
      case NodeKind::kUnaryExpr:
      case NodeKind::kAwaitExpr:
        return kPrecUnary;
      case NodeKind::kUpdateExpr:
        return node->num != 0 ? kPrecUnary : kPrecPostfix;
      case NodeKind::kCallExpr:
      case NodeKind::kNewExpr:
      case NodeKind::kMemberExpr:
      case NodeKind::kIndexExpr:
        return kPrecCall;
      default:
        return kPrecPrimary;
    }
  }

  void PrintAt(const NodePtr& node, int min_prec) {
    if (PrecOf(node) < min_prec) {
      Emit("(");
      PrintExpr(node);
      Emit(")");
    } else {
      PrintExpr(node);
    }
  }

  // Prints `node` where output opening with `{` would be read as a block, or
  // at statement start also with `function` or `async function` as a
  // declaration: such output is parenthesized.
  void PrintGuarded(const NodePtr& node, int min_prec, bool statement_start) {
    const size_t start = out_.size();
    PrintAt(node, min_prec);
    const std::string_view printed = std::string_view(out_).substr(start);
    const auto opens_with_word = [printed](std::string_view word) {
      if (printed.substr(0, word.size()) != word) {
        return false;
      }
      if (printed.size() == word.size()) {
        return true;
      }
      const char next = printed[word.size()];
      return !(std::isalnum(static_cast<unsigned char>(next)) || next == '_' || next == '$');
    };
    if ((!printed.empty() && printed[0] == '{') ||
        (statement_start && (opens_with_word("function") || opens_with_word("async function")))) {
      out_.insert(start, 1, '(');
      Emit(")");
    }
  }

  // `new` takes a primary followed by `.name` links only; any other callee
  // is parenthesized.
  static bool IsNewCallee(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kIdentifier:
      case NodeKind::kThisExpr:
        return true;
      case NodeKind::kMemberExpr:
        return node->num == 0 && KeywordCode(node->str) == Tok::kNone &&
               IsNewCallee(node->children[0]);
      default:
        return false;
    }
  }

  void PrintParams(const NodePtr& params) {
    Emit("(");
    for (size_t i = 0; i < params->children.size(); ++i) {
      if (i > 0) {
        Emit(", ");
      }
      const NodePtr& p = params->children[i];
      if (p->kind == NodeKind::kRestParam) {
        Emit("...");
        Emit(p->str);
      } else {
        Emit(p->str);
      }
    }
    Emit(")");
  }

  void PrintArgs(const NodePtr& call, size_t first_arg_index) {
    Emit("(");
    for (size_t i = first_arg_index; i < call->children.size(); ++i) {
      if (i > first_arg_index) {
        Emit(", ");
      }
      PrintAt(call->children[i], kPrecAssign);
    }
    Emit(")");
  }

  void PrintExpr(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kNumberLit:
        if (node->num < 0) {
          Emit("(" + NumberToString(node->num) + ")");
        } else {
          Emit(NumberToString(node->num));
        }
        return;
      case NodeKind::kStringLit:
        Emit(QuoteString(node->str));
        return;
      case NodeKind::kBoolLit:
        Emit(node->num != 0 ? "true" : "false");
        return;
      case NodeKind::kNullLit:
        Emit("null");
        return;
      case NodeKind::kUndefinedLit:
        Emit("undefined");
        return;
      case NodeKind::kThisExpr:
        Emit("this");
        return;
      case NodeKind::kIdentifier:
        Emit(node->str);
        return;
      case NodeKind::kArrayLit:
        Emit("[");
        for (size_t i = 0; i < node->children.size(); ++i) {
          if (i > 0) {
            Emit(", ");
          }
          PrintAt(node->children[i], kPrecAssign);
        }
        Emit("]");
        return;
      case NodeKind::kObjectLit:
        if (node->children.empty()) {
          Emit("{}");
          return;
        }
        Emit("{ ");
        for (size_t i = 0; i < node->children.size(); ++i) {
          if (i > 0) {
            Emit(", ");
          }
          PrintProperty(node->children[i]);
        }
        Emit(" }");
        return;
      case NodeKind::kSpreadElement:
        Emit("...");
        PrintAt(node->children[0], kPrecAssign);
        return;
      case NodeKind::kFunctionExpr:
        Emit(node->num != 0 ? "async function" : "function");
        if (!node->str.empty()) {
          Emit(" ");
          Emit(node->str);
        }
        PrintParams(node->children[0]);
        Emit(" ");
        PrintBlockInline(node->children[1]);
        return;
      case NodeKind::kArrowFunction:
        if (node->num != 0) {
          Emit("async ");
        }
        PrintParams(node->children[0]);
        Emit(" => ");
        if (node->children[1]->kind == NodeKind::kBlockStmt) {
          PrintBlockInline(node->children[1]);
        } else {
          PrintGuarded(node->children[1], kPrecAssign, /*statement_start=*/false);
        }
        return;
      case NodeKind::kCallExpr:
        PrintAt(node->children[0], kPrecCall);
        PrintArgs(node, 1);
        return;
      case NodeKind::kNewExpr:
        Emit("new ");
        if (IsNewCallee(node->children[0])) {
          PrintExpr(node->children[0]);
        } else {
          Emit("(");
          PrintExpr(node->children[0]);
          Emit(")");
        }
        PrintArgs(node, 1);
        return;
      case NodeKind::kMemberExpr:
        PrintAt(node->children[0], kPrecCall);
        Emit(node->num != 0 ? "?." : ".");
        Emit(node->str);
        return;
      case NodeKind::kIndexExpr:
        PrintAt(node->children[0], kPrecCall);
        Emit("[");
        PrintExpr(node->children[1]);
        Emit("]");
        return;
      case NodeKind::kBinaryExpr:
      case NodeKind::kLogicalExpr: {
        const int prec = PrecOf(node);
        PrintAt(node->children[0], prec);  // left-associative
        Emit(" ");
        Emit(node->str);
        Emit(" ");
        PrintAt(node->children[1], prec + 1);
        return;
      }
      case NodeKind::kUnaryExpr: {
        const NodePtr& operand = node->children[0];
        Emit(node->str);
        // `typeof x`; and `- -x`, `+ ++x`, which unspaced would lex as `--x`
        // and `+++x`.
        const char sign = node->str[0];
        const bool same_sign = (sign == '-' || sign == '+') &&
                               (operand->kind == NodeKind::kUnaryExpr ||
                                (operand->kind == NodeKind::kUpdateExpr && operand->num != 0)) &&
                               operand->str[0] == sign;
        if (node->str.size() > 1 || same_sign) {
          Emit(" ");
        }
        PrintAt(operand, kPrecUnary);
        return;
      }
      case NodeKind::kUpdateExpr:
        if (node->num != 0) {
          Emit(node->str);
          PrintAt(node->children[0], kPrecUnary);
        } else {
          PrintAt(node->children[0], kPrecCall);
          Emit(node->str);
        }
        return;
      case NodeKind::kAssignExpr:
        PrintAt(node->children[0], kPrecCall);
        Emit(" ");
        Emit(node->str);
        Emit(" ");
        PrintAt(node->children[1], kPrecAssign);
        return;
      case NodeKind::kConditionalExpr:
        PrintAt(node->children[0], kPrecBinary);
        Emit(" ? ");
        PrintAt(node->children[1], kPrecAssign);
        Emit(" : ");
        PrintAt(node->children[2], kPrecAssign);
        return;
      case NodeKind::kAwaitExpr:
        Emit("await ");
        PrintAt(node->children[0], kPrecUnary);
        return;
      case NodeKind::kSequenceExpr:
        for (size_t i = 0; i < node->children.size(); ++i) {
          if (i > 0) {
            Emit(", ");
          }
          PrintAt(node->children[i], kPrecAssign);
        }
        return;
      default:
        assert(false && "PrintExpr called on a statement node");
        Emit("/*?*/");
        return;
    }
  }

  void PrintProperty(const NodePtr& prop) {
    if (prop->num != 0) {  // computed
      Emit("[");
      PrintAt(prop->children[0], kPrecAssign);
      Emit("]: ");
      PrintAt(prop->children[1], kPrecAssign);
      return;
    }
    bool plain_ident = !prop->str.empty() &&
                       (std::isalpha(static_cast<unsigned char>(prop->str[0])) ||
                        prop->str[0] == '_' || prop->str[0] == '$');
    for (char c : prop->str) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$')) {
        plain_ident = false;
        break;
      }
    }
    if (plain_ident) {
      Emit(prop->str);
    } else {
      Emit(QuoteString(prop->str));
    }
    Emit(": ");
    PrintAt(prop->children[0], kPrecAssign);
  }

  // Prints a block starting at the current position (used after `) ` of a
  // function head); ends without a newline.
  void PrintBlockInline(const NodePtr& block) {
    if (block->children.empty()) {
      Emit("{}");
      return;
    }
    Emit("{\n");
    ++indent_;
    for (const NodePtr& stmt : block->children) {
      PrintStmt(stmt);
    }
    --indent_;
    EmitIndent();
    Emit("}");
  }

  void PrintStmt(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kProgram:
        for (const NodePtr& stmt : node->children) {
          PrintStmt(stmt);
        }
        return;
      case NodeKind::kVarDecl:
        EmitIndent();
        Emit(node->str);
        Emit(" ");
        for (size_t i = 0; i < node->children.size(); ++i) {
          if (i > 0) {
            Emit(", ");
          }
          const NodePtr& d = node->children[i];
          Emit(d->str);
          if (!d->children.empty()) {
            Emit(" = ");
            PrintAt(d->children[0], kPrecAssign);
          }
        }
        Emit(";\n");
        return;
      case NodeKind::kExprStmt:
        EmitIndent();
        PrintGuarded(node->children[0], kPrecSequence, /*statement_start=*/true);
        Emit(";\n");
        return;
      case NodeKind::kBlockStmt:
        EmitIndent();
        PrintBlockInline(node);
        Emit("\n");
        return;
      case NodeKind::kIfStmt:
        EmitIndent();
        Emit("if (");
        PrintExpr(node->children[0]);
        Emit(") ");
        PrintNestedStmt(node->children[1]);
        if (node->children.size() > 2) {
          EmitIndent();
          Emit("else ");
          PrintNestedStmt(node->children[2]);
        }
        return;
      case NodeKind::kWhileStmt:
        EmitIndent();
        Emit("while (");
        PrintExpr(node->children[0]);
        Emit(") ");
        PrintNestedStmt(node->children[1]);
        return;
      case NodeKind::kForStmt: {
        EmitIndent();
        Emit("for (");
        const NodePtr& init = node->children[0];
        if (init->kind == NodeKind::kVarDecl) {
          Emit(init->str);
          Emit(" ");
          for (size_t i = 0; i < init->children.size(); ++i) {
            if (i > 0) {
              Emit(", ");
            }
            Emit(init->children[i]->str);
            if (!init->children[i]->children.empty()) {
              Emit(" = ");
              PrintAt(init->children[i]->children[0], kPrecAssign);
            }
          }
        } else if (init->kind != NodeKind::kEmpty) {
          PrintExpr(init);
        }
        Emit("; ");
        if (node->children[1]->kind != NodeKind::kEmpty) {
          PrintExpr(node->children[1]);
        }
        Emit("; ");
        if (node->children[2]->kind != NodeKind::kEmpty) {
          PrintExpr(node->children[2]);
        }
        Emit(") ");
        PrintNestedStmt(node->children[3]);
        return;
      }
      case NodeKind::kForOfStmt:
        EmitIndent();
        Emit("for (");
        Emit(node->str);
        Emit(" ");
        Emit(node->children[0]->str);
        Emit(" of ");
        PrintAt(node->children[1], kPrecAssign);
        Emit(") ");
        PrintNestedStmt(node->children[2]);
        return;
      case NodeKind::kReturnStmt:
        EmitIndent();
        if (node->children.empty()) {
          Emit("return;\n");
        } else {
          Emit("return ");
          PrintExpr(node->children[0]);
          Emit(";\n");
        }
        return;
      case NodeKind::kBreakStmt:
        EmitLine("break;");
        return;
      case NodeKind::kContinueStmt:
        EmitLine("continue;");
        return;
      case NodeKind::kEmpty:
        return;
      case NodeKind::kFunctionDecl:
        EmitIndent();
        Emit(node->num != 0 ? "async function " : "function ");
        Emit(node->str);
        PrintParams(node->children[0]);
        Emit(" ");
        PrintBlockInline(node->children[1]);
        Emit("\n");
        return;
      case NodeKind::kClassDecl:
        EmitIndent();
        Emit("class ");
        Emit(node->str);
        if (node->children[0]->kind != NodeKind::kEmpty) {
          Emit(" extends ");
          Emit(node->children[0]->str);
        }
        Emit(" {\n");
        ++indent_;
        for (size_t i = 1; i < node->children.size(); ++i) {
          const NodePtr& method = node->children[i];
          EmitIndent();
          Emit(method->str);
          PrintParams(method->children[0]);
          Emit(" ");
          PrintBlockInline(method->children[1]);
          Emit("\n");
        }
        --indent_;
        EmitIndent();
        Emit("}\n");
        return;
      case NodeKind::kTryStmt:
        EmitIndent();
        Emit("try ");
        PrintBlockInline(node->children[0]);
        if (node->children[2]->kind == NodeKind::kBlockStmt) {
          Emit(" catch ");
          if (node->children[1]->kind != NodeKind::kEmpty) {
            Emit("(");
            Emit(node->children[1]->str);
            Emit(") ");
          }
          PrintBlockInline(node->children[2]);
        }
        if (node->children.size() > 3 && node->children[3]->kind == NodeKind::kBlockStmt) {
          Emit(" finally ");
          PrintBlockInline(node->children[3]);
        }
        Emit("\n");
        return;
      case NodeKind::kThrowStmt:
        EmitIndent();
        Emit("throw ");
        PrintExpr(node->children[0]);
        Emit(";\n");
        return;
      default:
        // Expression used in statement position.
        EmitIndent();
        PrintExpr(node);
        Emit(";\n");
        return;
    }
  }

  // Prints a statement that follows `if (...) ` etc. — blocks inline, other
  // statements on the next line, indented. No braces are synthesized so the
  // printed tree re-parses to an identical structure.
  void PrintNestedStmt(const NodePtr& stmt) {
    if (stmt->kind == NodeKind::kBlockStmt) {
      PrintBlockInline(stmt);
      Emit("\n");
      return;
    }
    Emit("\n");
    ++indent_;
    PrintStmt(stmt);
    --indent_;
  }

  std::string out_;
  int indent_ = 0;
};

}  // namespace

std::string PrintProgram(const NodePtr& root) {
  Printer printer;
  return printer.Render(root);
}

std::string PrintProgram(const Program& program) { return PrintProgram(program.root); }

std::string PrintNode(const NodePtr& node) {
  Printer printer;
  return printer.Render(node);
}

}  // namespace turnstile
