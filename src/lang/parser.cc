#include "src/lang/parser.h"

#include <cassert>

#include "src/lang/lexer.h"
#include "src/obs/metrics.h"
#include "src/support/stopwatch.h"

namespace turnstile {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string source_name)
      : tokens_(std::move(tokens)), source_name_(std::move(source_name)) {}

  Result<Program> Run() {
    NodePtr root = NewNode(NodeKind::kProgram);
    while (!AtEnd()) {
      TURNSTILE_ASSIGN_OR_RETURN(stmt, ParseStatement());
      root->children.push_back(std::move(stmt));
    }
    Program program;
    program.root = std::move(root);
    program.source_name = source_name_;
    program.node_count = next_id_;
    return program;
  }

 private:
  // ---- token helpers -------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) {
      return tokens_.back();  // EOF token
    }
    return tokens_[i];
  }

  bool AtEnd() const { return Peek().Is(TokenKind::kEndOfFile); }

  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool Match(Tok code) {
    if (Peek().Is(code)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Fail(const std::string& message) const {
    return ParseError(source_name_ + ":" + Peek().loc.ToString() + ": " + message + " (got '" +
                      std::string(Peek().text) + "')");
  }

  // Held by every production that can nest itself (see kMaxParseNesting).
  class NestingScope {
   public:
    explicit NestingScope(int* depth) : depth_(depth) { ++*depth_; }
    ~NestingScope() { --*depth_; }
    NestingScope(const NestingScope&) = delete;
    NestingScope& operator=(const NestingScope&) = delete;

   private:
    int* depth_;
  };

  // Held by a loop that wraps the operand built so far in a new node (`a + b
  // + c`, `o.a.b`, `f()()`): every link nests the tree one level deeper, so
  // each counts against kMaxParseNesting until the loop ends.
  class ChainScope {
   public:
    explicit ChainScope(int* depth) : depth_(depth) {}
    ~ChainScope() { *depth_ -= links_; }
    ChainScope(const ChainScope&) = delete;
    ChainScope& operator=(const ChainScope&) = delete;

    void Link() {
      ++links_;
      ++*depth_;
    }

   private:
    int* depth_;
    int links_ = 0;
  };

  Status CheckNesting() const {
    if (depth_ > kMaxParseNesting) {
      return Fail("nesting deeper than " + std::to_string(kMaxParseNesting) + " levels");
    }
    return Status::Ok();
  }

  Status Expect(Tok code) {
    if (!Match(code)) {
      return Fail("expected '" + std::string(Spelling(code)) + "'");
    }
    return Status::Ok();
  }

  NodePtr NewNode(NodeKind kind) {
    NodePtr node = std::make_shared<Node>(kind);
    node->id = next_id_++;
    node->loc = Peek().loc;
    return node;
  }

  // ---- statements ----------------------------------------------------------

  Result<NodePtr> ParseStatement() {
    NestingScope nesting(&depth_);
    TURNSTILE_RETURN_IF_ERROR(CheckNesting());
    switch (Peek().code) {
      case Tok::kLet:
      case Tok::kConst:
      case Tok::kVar: {
        TURNSTILE_ASSIGN_OR_RETURN(decl, ParseVarDecl());
        Match(Tok::kSemicolon);
        return decl;
      }
      case Tok::kFunction:
        return ParseFunctionDecl(/*is_async=*/false);
      case Tok::kAsync:
        if (Peek(1).Is(Tok::kFunction)) {
          Advance();  // async
          return ParseFunctionDecl(/*is_async=*/true);
        }
        break;
      case Tok::kClass:
        return ParseClassDecl();
      case Tok::kIf:
        return ParseIfStatement();
      case Tok::kWhile:
        return ParseWhileStatement();
      case Tok::kFor:
        return ParseForStatement();
      case Tok::kReturn: {
        NodePtr stmt = NewNode(NodeKind::kReturnStmt);
        Advance();
        if (!Peek().Is(Tok::kSemicolon) && !Peek().Is(Tok::kRBrace) && !AtEnd()) {
          TURNSTILE_ASSIGN_OR_RETURN(arg, ParseExpression());
          stmt->children.push_back(std::move(arg));
        }
        Match(Tok::kSemicolon);
        return stmt;
      }
      case Tok::kBreak:
      case Tok::kContinue: {
        NodePtr stmt = NewNode(Peek().Is(Tok::kBreak) ? NodeKind::kBreakStmt
                                                      : NodeKind::kContinueStmt);
        Advance();
        Match(Tok::kSemicolon);
        return stmt;
      }
      case Tok::kTry:
        return ParseTryStatement();
      case Tok::kThrow: {
        NodePtr stmt = NewNode(NodeKind::kThrowStmt);
        Advance();
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseExpression());
        stmt->children.push_back(std::move(arg));
        Match(Tok::kSemicolon);
        return stmt;
      }
      case Tok::kLBrace:
        return ParseBlock();
      case Tok::kSemicolon: {
        NodePtr stmt = NewNode(NodeKind::kEmpty);
        Advance();
        return stmt;
      }
      default:
        break;
    }
    NodePtr stmt = NewNode(NodeKind::kExprStmt);
    TURNSTILE_ASSIGN_OR_RETURN(expr, ParseExpression());
    stmt->children.push_back(std::move(expr));
    Match(Tok::kSemicolon);
    return stmt;
  }

  // Parses `let a = 1, b` WITHOUT consuming a trailing semicolon.
  Result<NodePtr> ParseVarDecl() {
    NodePtr decl = NewNode(NodeKind::kVarDecl);
    decl->str = Advance().text;  // let/const/var
    while (true) {
      if (!Peek().Is(TokenKind::kIdentifier)) {
        return Fail("expected variable name");
      }
      NodePtr declarator = NewNode(NodeKind::kDeclarator);
      declarator->str = Advance().text;
      if (Match(Tok::kAssign)) {
        TURNSTILE_ASSIGN_OR_RETURN(init, ParseAssignment());
        declarator->children.push_back(std::move(init));
      }
      decl->children.push_back(std::move(declarator));
      if (!Match(Tok::kComma)) {
        return decl;
      }
    }
  }

  Result<NodePtr> ParseFunctionDecl(bool is_async) {
    NodePtr fn = NewNode(NodeKind::kFunctionDecl);
    fn->num = is_async ? 1 : 0;
    Advance();  // function
    if (!Peek().Is(TokenKind::kIdentifier)) {
      return Fail("expected function name");
    }
    fn->str = Advance().text;
    TURNSTILE_ASSIGN_OR_RETURN(params, ParseParams());
    TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
    fn->children.push_back(std::move(params));
    fn->children.push_back(std::move(body));
    return fn;
  }

  Result<NodePtr> ParseClassDecl() {
    NodePtr cls = NewNode(NodeKind::kClassDecl);
    Advance();  // class
    if (!Peek().Is(TokenKind::kIdentifier)) {
      return Fail("expected class name");
    }
    cls->str = Advance().text;
    if (Match(Tok::kExtends)) {
      if (!Peek().Is(TokenKind::kIdentifier)) {
        return Fail("expected superclass name");
      }
      NodePtr super = NewNode(NodeKind::kIdentifier);
      super->str = Advance().text;
      cls->children.push_back(std::move(super));
    } else {
      cls->children.push_back(NewNode(NodeKind::kEmpty));
    }
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    while (!Peek().Is(Tok::kRBrace)) {
      if (AtEnd()) {
        return Fail("unterminated class body");
      }
      if (Match(Tok::kSemicolon)) {
        continue;
      }
      Match(Tok::kAsync);  // ignored modifier
      NodePtr method = NewNode(NodeKind::kMethodDef);
      if (!Peek().Is(TokenKind::kIdentifier) && !Peek().Is(TokenKind::kKeyword)) {
        return Fail("expected method name");
      }
      method->str = Advance().text;
      TURNSTILE_ASSIGN_OR_RETURN(params, ParseParams());
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
      method->children.push_back(std::move(params));
      method->children.push_back(std::move(body));
      cls->children.push_back(std::move(method));
    }
    Advance();  // }
    return cls;
  }

  Result<NodePtr> ParseParams() {
    NodePtr params = NewNode(NodeKind::kParams);
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLParen));
    if (Match(Tok::kRParen)) {
      return params;
    }
    while (true) {
      if (Match(Tok::kEllipsis)) {
        if (!Peek().Is(TokenKind::kIdentifier)) {
          return Fail("expected rest parameter name");
        }
        NodePtr rest = NewNode(NodeKind::kRestParam);
        rest->str = Advance().text;
        params->children.push_back(std::move(rest));
      } else {
        if (!Peek().Is(TokenKind::kIdentifier)) {
          return Fail("expected parameter name");
        }
        NodePtr param = NewNode(NodeKind::kIdentifier);
        param->str = Advance().text;
        params->children.push_back(std::move(param));
      }
      if (Match(Tok::kComma)) {
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
      return params;
    }
  }

  Result<NodePtr> ParseBlock() {
    NodePtr block = NewNode(NodeKind::kBlockStmt);
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    while (!Peek().Is(Tok::kRBrace)) {
      if (AtEnd()) {
        return Fail("unterminated block");
      }
      TURNSTILE_ASSIGN_OR_RETURN(stmt, ParseStatement());
      block->children.push_back(std::move(stmt));
    }
    Advance();  // }
    return block;
  }

  Result<NodePtr> ParseIfStatement() {
    NodePtr stmt = NewNode(NodeKind::kIfStmt);
    Advance();  // if
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLParen));
    TURNSTILE_ASSIGN_OR_RETURN(cond, ParseExpression());
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
    TURNSTILE_ASSIGN_OR_RETURN(then_stmt, ParseStatement());
    stmt->children.push_back(std::move(cond));
    stmt->children.push_back(std::move(then_stmt));
    if (Match(Tok::kElse)) {
      TURNSTILE_ASSIGN_OR_RETURN(else_stmt, ParseStatement());
      stmt->children.push_back(std::move(else_stmt));
    }
    return stmt;
  }

  Result<NodePtr> ParseWhileStatement() {
    NodePtr stmt = NewNode(NodeKind::kWhileStmt);
    Advance();  // while
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLParen));
    TURNSTILE_ASSIGN_OR_RETURN(cond, ParseExpression());
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
    TURNSTILE_ASSIGN_OR_RETURN(body, ParseStatement());
    stmt->children.push_back(std::move(cond));
    stmt->children.push_back(std::move(body));
    return stmt;
  }

  Result<NodePtr> ParseForStatement() {
    SourceLocation loc = Peek().loc;
    Advance();  // for
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLParen));

    // for-of: `for (let x of expr)`.
    if ((Peek().Is(Tok::kLet) || Peek().Is(Tok::kConst) || Peek().Is(Tok::kVar)) &&
        Peek(1).Is(TokenKind::kIdentifier) && Peek(2).Is(Tok::kOf)) {
      NodePtr stmt = NewNode(NodeKind::kForOfStmt);
      stmt->loc = loc;
      stmt->str = Advance().text;  // decl kind
      NodePtr var = NewNode(NodeKind::kIdentifier);
      var->str = Advance().text;
      Advance();  // of
      TURNSTILE_ASSIGN_OR_RETURN(iterable, ParseAssignment());
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseStatement());
      stmt->children.push_back(std::move(var));
      stmt->children.push_back(std::move(iterable));
      stmt->children.push_back(std::move(body));
      return stmt;
    }

    NodePtr stmt = NewNode(NodeKind::kForStmt);
    stmt->loc = loc;
    // init
    if (Peek().Is(Tok::kSemicolon)) {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      Advance();
    } else if (Peek().Is(Tok::kLet) || Peek().Is(Tok::kConst) || Peek().Is(Tok::kVar)) {
      TURNSTILE_ASSIGN_OR_RETURN(init, ParseVarDecl());
      stmt->children.push_back(std::move(init));
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kSemicolon));
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(init, ParseExpression());
      stmt->children.push_back(std::move(init));
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kSemicolon));
    }
    // condition
    if (Peek().Is(Tok::kSemicolon)) {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      Advance();
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(cond, ParseExpression());
      stmt->children.push_back(std::move(cond));
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kSemicolon));
    }
    // update
    if (Peek().Is(Tok::kRParen)) {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      Advance();
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(update, ParseExpression());
      stmt->children.push_back(std::move(update));
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
    }
    TURNSTILE_ASSIGN_OR_RETURN(body, ParseStatement());
    stmt->children.push_back(std::move(body));
    return stmt;
  }

  Result<NodePtr> ParseTryStatement() {
    NodePtr stmt = NewNode(NodeKind::kTryStmt);
    Advance();  // try
    TURNSTILE_ASSIGN_OR_RETURN(block, ParseBlock());
    stmt->children.push_back(std::move(block));
    if (Match(Tok::kCatch)) {
      if (Match(Tok::kLParen)) {
        if (!Peek().Is(TokenKind::kIdentifier)) {
          return Fail("expected catch parameter");
        }
        NodePtr param = NewNode(NodeKind::kIdentifier);
        param->str = Advance().text;
        stmt->children.push_back(std::move(param));
        TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
      } else {
        stmt->children.push_back(NewNode(NodeKind::kEmpty));
      }
      TURNSTILE_ASSIGN_OR_RETURN(catch_block, ParseBlock());
      stmt->children.push_back(std::move(catch_block));
    } else {
      // No catch clause: kEmpty, not an empty kBlockStmt — an empty catch
      // block would swallow the exception instead of rethrowing it after
      // the finally block.
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
    }
    if (Match(Tok::kFinally)) {
      TURNSTILE_ASSIGN_OR_RETURN(finally_block, ParseBlock());
      stmt->children.push_back(std::move(finally_block));
    } else {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
    }
    return stmt;
  }

  // ---- expressions ---------------------------------------------------------

  Result<NodePtr> ParseExpression() {
    TURNSTILE_ASSIGN_OR_RETURN(first, ParseAssignment());
    if (!Peek().Is(Tok::kComma)) {
      return first;
    }
    NodePtr seq = NewNode(NodeKind::kSequenceExpr);
    seq->children.push_back(std::move(first));
    while (Match(Tok::kComma)) {
      TURNSTILE_ASSIGN_OR_RETURN(next, ParseAssignment());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  // Checks whether the tokens starting at the current position form an arrow
  // function head: `ident =>` or `( ... ) =>` (with balanced parens).
  bool LooksLikeArrowFunction() {
    size_t i = pos_;
    if (Peek().Is(Tok::kAsync)) {
      ++i;
    }
    const Token& t0 = i < tokens_.size() ? tokens_[i] : tokens_.back();
    const Token& t1 = i + 1 < tokens_.size() ? tokens_[i + 1] : tokens_.back();
    if (t0.Is(TokenKind::kIdentifier) && t1.Is(Tok::kArrow)) {
      return true;
    }
    if (!t0.Is(Tok::kLParen)) {
      return false;
    }
    if (matching_paren_.empty()) {
      IndexMatchingParens();
    }
    const int close = matching_paren_[i];
    return close >= 0 && static_cast<size_t>(close) + 1 < tokens_.size() &&
           tokens_[static_cast<size_t>(close) + 1].Is(Tok::kArrow);
  }

  // One stack pass over the stream: each `(` maps to the index of its
  // matching `)`, or -1 when the input ends first. Only parens count, as in
  // the arrow-head test above; a stray `)` closes nothing.
  void IndexMatchingParens() {
    matching_paren_.assign(tokens_.size(), -1);
    std::vector<int> open;
    for (size_t j = 0; j < tokens_.size() && !tokens_[j].Is(TokenKind::kEndOfFile); ++j) {
      if (tokens_[j].Is(Tok::kLParen)) {
        open.push_back(static_cast<int>(j));
      } else if (tokens_[j].Is(Tok::kRParen) && !open.empty()) {
        matching_paren_[static_cast<size_t>(open.back())] = static_cast<int>(j);
        open.pop_back();
      }
    }
  }

  Result<NodePtr> ParseArrowFunction() {
    NodePtr fn = NewNode(NodeKind::kArrowFunction);
    if (Match(Tok::kAsync)) {
      fn->num = 1;
    }
    NodePtr params = NewNode(NodeKind::kParams);
    if (Peek().Is(TokenKind::kIdentifier)) {
      NodePtr param = NewNode(NodeKind::kIdentifier);
      param->str = Advance().text;
      params->children.push_back(std::move(param));
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(parsed, ParseParams());
      params = std::move(parsed);
    }
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kArrow));
    fn->children.push_back(std::move(params));
    if (Peek().Is(Tok::kLBrace)) {
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
      fn->children.push_back(std::move(body));
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseAssignment());
      fn->children.push_back(std::move(body));
    }
    return fn;
  }

  Result<NodePtr> ParseAssignment() {
    NestingScope nesting(&depth_);
    TURNSTILE_RETURN_IF_ERROR(CheckNesting());
    if (LooksLikeArrowFunction()) {
      return ParseArrowFunction();
    }
    TURNSTILE_ASSIGN_OR_RETURN(left, ParseConditional());
    if (!Operator(Peek().code).assign) {
      return left;
    }
    if (left->kind != NodeKind::kIdentifier && left->kind != NodeKind::kMemberExpr &&
        left->kind != NodeKind::kIndexExpr) {
      return Fail("invalid assignment target");
    }
    NodePtr assign = NewNode(NodeKind::kAssignExpr);
    assign->str = Advance().text;
    TURNSTILE_ASSIGN_OR_RETURN(value, ParseAssignment());
    assign->children.push_back(std::move(left));
    assign->children.push_back(std::move(value));
    return assign;
  }

  Result<NodePtr> ParseConditional() {
    TURNSTILE_ASSIGN_OR_RETURN(cond, ParseBinary(0));
    if (!Peek().Is(Tok::kQuestion)) {
      return cond;
    }
    Advance();
    NodePtr node = NewNode(NodeKind::kConditionalExpr);
    TURNSTILE_ASSIGN_OR_RETURN(then_expr, ParseAssignment());
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kColon));
    TURNSTILE_ASSIGN_OR_RETURN(else_expr, ParseAssignment());
    node->children.push_back(std::move(cond));
    node->children.push_back(std::move(then_expr));
    node->children.push_back(std::move(else_expr));
    return node;
  }

  // Precedence climbing over the levels of kOperatorTable: every operator is
  // left-associative, so this builds the same tree (and numbers its nodes in
  // the same order) as one recursive production per level would, in one
  // native frame per operand instead of one per level.
  Result<NodePtr> ParseBinary(int min_level) {
    TURNSTILE_ASSIGN_OR_RETURN(left, ParseUnary());
    ChainScope chain(&depth_);
    while (true) {
      const int level = Operator(Peek().code).binary_level;
      if (level < min_level) {  // also every non-operator, at level -1
        return left;
      }
      chain.Link();
      TURNSTILE_RETURN_IF_ERROR(CheckNesting());
      const std::string_view op = Advance().text;
      NodePtr node =
          NewNode(level <= kLastLogicalLevel ? NodeKind::kLogicalExpr : NodeKind::kBinaryExpr);
      node->str = op;
      TURNSTILE_ASSIGN_OR_RETURN(right, ParseBinary(level + 1));
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
  }

  // The operand of a prefix operator: one nesting level per operator.
  Result<NodePtr> ParseUnaryOperand() {
    NestingScope nesting(&depth_);
    TURNSTILE_RETURN_IF_ERROR(CheckNesting());
    return ParseUnary();
  }

  Result<NodePtr> ParseUnary() {
    switch (Peek().code) {
      case Tok::kBang:
      case Tok::kMinus:
      case Tok::kPlus:
      case Tok::kTilde:
      case Tok::kTypeof:
      case Tok::kDelete: {
        NodePtr node = NewNode(NodeKind::kUnaryExpr);
        node->str = Advance().text;
        TURNSTILE_ASSIGN_OR_RETURN(operand, ParseUnaryOperand());
        node->children.push_back(std::move(operand));
        return node;
      }
      case Tok::kAwait: {
        NodePtr node = NewNode(NodeKind::kAwaitExpr);
        Advance();
        TURNSTILE_ASSIGN_OR_RETURN(operand, ParseUnaryOperand());
        node->children.push_back(std::move(operand));
        return node;
      }
      case Tok::kPlusPlus:
      case Tok::kMinusMinus: {
        NodePtr node = NewNode(NodeKind::kUpdateExpr);
        node->str = Advance().text;
        node->num = 1;  // prefix
        TURNSTILE_ASSIGN_OR_RETURN(operand, ParseUnaryOperand());
        node->children.push_back(std::move(operand));
        return node;
      }
      default:
        return ParsePostfix();
    }
  }

  Result<NodePtr> ParsePostfix() {
    TURNSTILE_ASSIGN_OR_RETURN(expr, ParseCallMember());
    if (Peek().Is(Tok::kPlusPlus) || Peek().Is(Tok::kMinusMinus)) {
      NodePtr node = NewNode(NodeKind::kUpdateExpr);
      node->str = Advance().text;
      node->num = 0;  // postfix
      node->children.push_back(std::move(expr));
      return node;
    }
    return expr;
  }

  Result<NodePtr> ParseArguments(NodePtr call) {
    TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kLParen));
    if (Match(Tok::kRParen)) {
      return call;
    }
    while (true) {
      if (Match(Tok::kEllipsis)) {
        NodePtr spread = NewNode(NodeKind::kSpreadElement);
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseAssignment());
        spread->children.push_back(std::move(arg));
        call->children.push_back(std::move(spread));
      } else {
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseAssignment());
        call->children.push_back(std::move(arg));
      }
      if (Match(Tok::kComma)) {
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
      return call;
    }
  }

  Result<NodePtr> ParseCallMember() {
    TURNSTILE_ASSIGN_OR_RETURN(expr, ParsePrimary());
    ChainScope chain(&depth_);
    while (true) {
      const Tok code = Peek().code;
      if (code != Tok::kDot && code != Tok::kQuestionDot && code != Tok::kLBracket &&
          code != Tok::kLParen) {
        return expr;
      }
      chain.Link();
      TURNSTILE_RETURN_IF_ERROR(CheckNesting());
      if (code == Tok::kLParen) {
        NodePtr call = NewNode(NodeKind::kCallExpr);
        call->children.push_back(std::move(expr));
        TURNSTILE_ASSIGN_OR_RETURN(done, ParseArguments(std::move(call)));
        expr = std::move(done);
      } else if (code == Tok::kLBracket) {
        Advance();
        NodePtr index = NewNode(NodeKind::kIndexExpr);
        TURNSTILE_ASSIGN_OR_RETURN(index_expr, ParseExpression());
        TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRBracket));
        index->children.push_back(std::move(expr));
        index->children.push_back(std::move(index_expr));
        expr = std::move(index);
      } else {
        Advance();
        if (!Peek().Is(TokenKind::kIdentifier) && !Peek().Is(TokenKind::kKeyword)) {
          return Fail("expected property name");
        }
        NodePtr member = NewNode(NodeKind::kMemberExpr);
        member->str = Advance().text;
        member->num = code == Tok::kQuestionDot ? 1 : 0;
        member->children.push_back(std::move(expr));
        expr = std::move(member);
      }
    }
  }

  Result<NodePtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kNumber: {
        NodePtr node = NewNode(NodeKind::kNumberLit);
        node->num = Advance().number;
        return node;
      }
      case TokenKind::kString: {
        NodePtr node = NewNode(NodeKind::kStringLit);
        node->str = Advance().text;
        return node;
      }
      case TokenKind::kIdentifier: {
        NodePtr node = NewNode(NodeKind::kIdentifier);
        node->str = Advance().text;
        return node;
      }
      case TokenKind::kKeyword:
        switch (token.code) {
          case Tok::kTrue:
          case Tok::kFalse: {
            NodePtr node = NewNode(NodeKind::kBoolLit);
            node->num = token.Is(Tok::kTrue) ? 1 : 0;
            Advance();
            return node;
          }
          case Tok::kNull:
          case Tok::kUndefined:
          case Tok::kThis: {
            NodePtr node = NewNode(token.Is(Tok::kNull)        ? NodeKind::kNullLit
                                   : token.Is(Tok::kUndefined) ? NodeKind::kUndefinedLit
                                                               : NodeKind::kThisExpr);
            Advance();
            return node;
          }
          case Tok::kFunction:
            return ParseFunctionExpr(/*is_async=*/false);
          case Tok::kAsync:
            if (Peek(1).Is(Tok::kFunction)) {
              Advance();
              return ParseFunctionExpr(/*is_async=*/true);
            }
            if (LooksLikeArrowFunction()) {
              return ParseArrowFunction();
            }
            break;
          case Tok::kNew:
            return ParseNewExpr();
          default:
            break;
        }
        return Fail("unexpected keyword '" + std::string(token.text) + "' in expression");
      case TokenKind::kPunct:
        switch (token.code) {
          case Tok::kLParen: {
            Advance();
            TURNSTILE_ASSIGN_OR_RETURN(expr, ParseExpression());
            TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRParen));
            return expr;
          }
          case Tok::kLBracket:
            return ParseArrayLiteral();
          case Tok::kLBrace:
            return ParseObjectLiteral();
          default:
            return Fail("unexpected token in expression");
        }
      case TokenKind::kEndOfFile:
        return Fail("unexpected end of input in expression");
    }
    return Fail("unexpected token");
  }

  Result<NodePtr> ParseFunctionExpr(bool is_async) {
    NodePtr fn = NewNode(NodeKind::kFunctionExpr);
    fn->num = is_async ? 1 : 0;
    Advance();  // function
    if (Peek().Is(TokenKind::kIdentifier)) {
      fn->str = Advance().text;
    }
    TURNSTILE_ASSIGN_OR_RETURN(params, ParseParams());
    TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
    fn->children.push_back(std::move(params));
    fn->children.push_back(std::move(body));
    return fn;
  }

  Result<NodePtr> ParseNewExpr() {
    NestingScope nesting(&depth_);
    TURNSTILE_RETURN_IF_ERROR(CheckNesting());
    NodePtr node = NewNode(NodeKind::kNewExpr);
    Advance();  // new
    // Callee: identifier with optional member accesses (no calls).
    TURNSTILE_ASSIGN_OR_RETURN(callee, ParsePrimary());
    ChainScope chain(&depth_);
    while (Peek().Is(Tok::kDot)) {
      chain.Link();
      TURNSTILE_RETURN_IF_ERROR(CheckNesting());
      Advance();
      if (!Peek().Is(TokenKind::kIdentifier)) {
        return Fail("expected property name after '.'");
      }
      NodePtr member = NewNode(NodeKind::kMemberExpr);
      member->str = Advance().text;
      member->children.push_back(std::move(callee));
      callee = std::move(member);
    }
    node->children.push_back(std::move(callee));
    if (Peek().Is(Tok::kLParen)) {
      TURNSTILE_ASSIGN_OR_RETURN(done, ParseArguments(std::move(node)));
      return done;
    }
    return node;
  }

  Result<NodePtr> ParseArrayLiteral() {
    NodePtr array = NewNode(NodeKind::kArrayLit);
    Advance();  // [
    if (Match(Tok::kRBracket)) {
      return array;
    }
    while (true) {
      if (Match(Tok::kEllipsis)) {
        NodePtr spread = NewNode(NodeKind::kSpreadElement);
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseAssignment());
        spread->children.push_back(std::move(arg));
        array->children.push_back(std::move(spread));
      } else {
        TURNSTILE_ASSIGN_OR_RETURN(element, ParseAssignment());
        array->children.push_back(std::move(element));
      }
      if (Match(Tok::kComma)) {
        if (Match(Tok::kRBracket)) {  // trailing comma
          return array;
        }
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRBracket));
      return array;
    }
  }

  Result<NodePtr> ParseObjectLiteral() {
    NodePtr object = NewNode(NodeKind::kObjectLit);
    Advance();  // {
    if (Match(Tok::kRBrace)) {
      return object;
    }
    while (true) {
      NodePtr prop = NewNode(NodeKind::kProperty);
      if (Peek().Is(Tok::kLBracket)) {
        // Computed key: [expr]: value
        Advance();
        prop->num = 1;
        TURNSTILE_ASSIGN_OR_RETURN(key, ParseAssignment());
        TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRBracket));
        TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kColon));
        TURNSTILE_ASSIGN_OR_RETURN(value, ParseAssignment());
        prop->children.push_back(std::move(key));
        prop->children.push_back(std::move(value));
      } else if (Peek().Is(TokenKind::kString)) {
        prop->str = Advance().text;
        TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kColon));
        TURNSTILE_ASSIGN_OR_RETURN(value, ParseAssignment());
        prop->children.push_back(std::move(value));
      } else if (Peek().Is(TokenKind::kIdentifier) || Peek().Is(TokenKind::kKeyword)) {
        prop->str = Advance().text;
        if (Peek().Is(Tok::kLParen)) {
          // Method shorthand: name(params) { ... }
          NodePtr fn = NewNode(NodeKind::kFunctionExpr);
          TURNSTILE_ASSIGN_OR_RETURN(params, ParseParams());
          TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
          fn->children.push_back(std::move(params));
          fn->children.push_back(std::move(body));
          prop->children.push_back(std::move(fn));
        } else if (Match(Tok::kColon)) {
          TURNSTILE_ASSIGN_OR_RETURN(value, ParseAssignment());
          prop->children.push_back(std::move(value));
        } else {
          // Shorthand: {a} means {a: a}.
          NodePtr value = NewNode(NodeKind::kIdentifier);
          value->str = prop->str;
          prop->children.push_back(std::move(value));
        }
      } else {
        return Fail("expected property name");
      }
      object->children.push_back(std::move(prop));
      if (Match(Tok::kComma)) {
        if (Match(Tok::kRBrace)) {  // trailing comma
          return object;
        }
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(Expect(Tok::kRBrace));
      return object;
    }
  }

  std::vector<Token> tokens_;
  std::vector<int> matching_paren_;  // by token index; built on first use
  std::string source_name_;
  size_t pos_ = 0;
  int next_id_ = 0;
  int depth_ = 0;  // current nesting (see kMaxParseNesting)
};

}  // namespace

Result<Program> ParseProgram(std::string_view source, std::string source_name) {
  static obs::Histogram* const parse_seconds =
      obs::Metrics::Global().GetHistogram("lang.parse_seconds");
  Stopwatch parse_watch;
  TURNSTILE_ASSIGN_OR_RETURN(tokens, Lex(source));
  Result<Program> program = Parser(std::move(tokens), std::move(source_name)).Run();
  parse_seconds->Observe(parse_watch.ElapsedSeconds());
  return program;
}

int RenumberNodes(Program* program) {
  int next_id = 0;
  ForEachNode(program->root, [&next_id](const NodePtr& node) { node->id = next_id++; });
  program->node_count = next_id;
  return next_id;
}

}  // namespace turnstile
