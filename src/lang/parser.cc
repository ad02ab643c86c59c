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

  bool MatchPunct(const char* spelling) {
    if (Peek().IsPunct(spelling)) {
      Advance();
      return true;
    }
    return false;
  }

  bool MatchKeyword(const char* spelling) {
    if (Peek().IsKeyword(spelling)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Fail(const std::string& message) const {
    return ParseError(source_name_ + ":" + Peek().loc.ToString() + ": " + message +
                      " (got '" + Peek().text + "')");
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

  Status CheckNesting() const {
    if (depth_ > kMaxParseNesting) {
      return Fail("nesting deeper than " + std::to_string(kMaxParseNesting) + " levels");
    }
    return Status::Ok();
  }

  Status ExpectPunct(const char* spelling) {
    if (!MatchPunct(spelling)) {
      return Fail(std::string("expected '") + spelling + "'");
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
    const Token& token = Peek();
    if (token.Is(TokenKind::kKeyword)) {
      const std::string& kw = token.text;
      if (kw == "let" || kw == "const" || kw == "var") {
        TURNSTILE_ASSIGN_OR_RETURN(decl, ParseVarDecl());
        MatchPunct(";");
        return decl;
      }
      if (kw == "function") {
        return ParseFunctionDecl(/*is_async=*/false);
      }
      if (kw == "async" && Peek(1).IsKeyword("function")) {
        Advance();  // async
        return ParseFunctionDecl(/*is_async=*/true);
      }
      if (kw == "class") {
        return ParseClassDecl();
      }
      if (kw == "if") {
        return ParseIfStatement();
      }
      if (kw == "while") {
        return ParseWhileStatement();
      }
      if (kw == "for") {
        return ParseForStatement();
      }
      if (kw == "return") {
        NodePtr stmt = NewNode(NodeKind::kReturnStmt);
        Advance();
        if (!Peek().IsPunct(";") && !Peek().IsPunct("}") && !AtEnd()) {
          TURNSTILE_ASSIGN_OR_RETURN(arg, ParseExpression());
          stmt->children.push_back(std::move(arg));
        }
        MatchPunct(";");
        return stmt;
      }
      if (kw == "break") {
        NodePtr stmt = NewNode(NodeKind::kBreakStmt);
        Advance();
        MatchPunct(";");
        return stmt;
      }
      if (kw == "continue") {
        NodePtr stmt = NewNode(NodeKind::kContinueStmt);
        Advance();
        MatchPunct(";");
        return stmt;
      }
      if (kw == "try") {
        return ParseTryStatement();
      }
      if (kw == "throw") {
        NodePtr stmt = NewNode(NodeKind::kThrowStmt);
        Advance();
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseExpression());
        stmt->children.push_back(std::move(arg));
        MatchPunct(";");
        return stmt;
      }
    }
    if (token.IsPunct("{")) {
      return ParseBlock();
    }
    if (token.IsPunct(";")) {
      NodePtr stmt = NewNode(NodeKind::kEmpty);
      Advance();
      return stmt;
    }
    NodePtr stmt = NewNode(NodeKind::kExprStmt);
    TURNSTILE_ASSIGN_OR_RETURN(expr, ParseExpression());
    stmt->children.push_back(std::move(expr));
    MatchPunct(";");
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
      if (MatchPunct("=")) {
        TURNSTILE_ASSIGN_OR_RETURN(init, ParseAssignment());
        declarator->children.push_back(std::move(init));
      }
      decl->children.push_back(std::move(declarator));
      if (!MatchPunct(",")) {
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
    if (MatchKeyword("extends")) {
      if (!Peek().Is(TokenKind::kIdentifier)) {
        return Fail("expected superclass name");
      }
      NodePtr super = NewNode(NodeKind::kIdentifier);
      super->str = Advance().text;
      cls->children.push_back(std::move(super));
    } else {
      cls->children.push_back(NewNode(NodeKind::kEmpty));
    }
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!Peek().IsPunct("}")) {
      if (AtEnd()) {
        return Fail("unterminated class body");
      }
      if (MatchPunct(";")) {
        continue;
      }
      MatchKeyword("async");  // ignored modifier
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
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("("));
    if (MatchPunct(")")) {
      return params;
    }
    while (true) {
      if (MatchPunct("...")) {
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
      if (MatchPunct(",")) {
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
      return params;
    }
  }

  Result<NodePtr> ParseBlock() {
    NodePtr block = NewNode(NodeKind::kBlockStmt);
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!Peek().IsPunct("}")) {
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
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("("));
    TURNSTILE_ASSIGN_OR_RETURN(cond, ParseExpression());
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
    TURNSTILE_ASSIGN_OR_RETURN(then_stmt, ParseStatement());
    stmt->children.push_back(std::move(cond));
    stmt->children.push_back(std::move(then_stmt));
    if (MatchKeyword("else")) {
      TURNSTILE_ASSIGN_OR_RETURN(else_stmt, ParseStatement());
      stmt->children.push_back(std::move(else_stmt));
    }
    return stmt;
  }

  Result<NodePtr> ParseWhileStatement() {
    NodePtr stmt = NewNode(NodeKind::kWhileStmt);
    Advance();  // while
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("("));
    TURNSTILE_ASSIGN_OR_RETURN(cond, ParseExpression());
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
    TURNSTILE_ASSIGN_OR_RETURN(body, ParseStatement());
    stmt->children.push_back(std::move(cond));
    stmt->children.push_back(std::move(body));
    return stmt;
  }

  Result<NodePtr> ParseForStatement() {
    SourceLocation loc = Peek().loc;
    Advance();  // for
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("("));

    // for-of: `for (let x of expr)`.
    if ((Peek().IsKeyword("let") || Peek().IsKeyword("const") || Peek().IsKeyword("var")) &&
        Peek(1).Is(TokenKind::kIdentifier) && Peek(2).IsKeyword("of")) {
      NodePtr stmt = NewNode(NodeKind::kForOfStmt);
      stmt->loc = loc;
      stmt->str = Advance().text;  // decl kind
      NodePtr var = NewNode(NodeKind::kIdentifier);
      var->str = Advance().text;
      Advance();  // of
      TURNSTILE_ASSIGN_OR_RETURN(iterable, ParseAssignment());
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseStatement());
      stmt->children.push_back(std::move(var));
      stmt->children.push_back(std::move(iterable));
      stmt->children.push_back(std::move(body));
      return stmt;
    }

    NodePtr stmt = NewNode(NodeKind::kForStmt);
    stmt->loc = loc;
    // init
    if (Peek().IsPunct(";")) {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      Advance();
    } else if (Peek().IsKeyword("let") || Peek().IsKeyword("const") || Peek().IsKeyword("var")) {
      TURNSTILE_ASSIGN_OR_RETURN(init, ParseVarDecl());
      stmt->children.push_back(std::move(init));
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(";"));
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(init, ParseExpression());
      stmt->children.push_back(std::move(init));
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(";"));
    }
    // condition
    if (Peek().IsPunct(";")) {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      Advance();
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(cond, ParseExpression());
      stmt->children.push_back(std::move(cond));
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(";"));
    }
    // update
    if (Peek().IsPunct(")")) {
      stmt->children.push_back(NewNode(NodeKind::kEmpty));
      Advance();
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(update, ParseExpression());
      stmt->children.push_back(std::move(update));
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
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
    if (MatchKeyword("catch")) {
      if (MatchPunct("(")) {
        if (!Peek().Is(TokenKind::kIdentifier)) {
          return Fail("expected catch parameter");
        }
        NodePtr param = NewNode(NodeKind::kIdentifier);
        param->str = Advance().text;
        stmt->children.push_back(std::move(param));
        TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
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
    if (MatchKeyword("finally")) {
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
    if (!Peek().IsPunct(",")) {
      return first;
    }
    NodePtr seq = NewNode(NodeKind::kSequenceExpr);
    seq->children.push_back(std::move(first));
    while (MatchPunct(",")) {
      TURNSTILE_ASSIGN_OR_RETURN(next, ParseAssignment());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  // Checks whether the tokens starting at the current position form an arrow
  // function head: `ident =>` or `( ... ) =>` (with balanced parens).
  bool LooksLikeArrowFunction() const {
    size_t i = pos_;
    if (Peek().IsKeyword("async")) {
      ++i;
    }
    const Token& t0 = i < tokens_.size() ? tokens_[i] : tokens_.back();
    const Token& t1 = i + 1 < tokens_.size() ? tokens_[i + 1] : tokens_.back();
    if (t0.Is(TokenKind::kIdentifier) && t1.IsPunct("=>")) {
      return true;
    }
    if (!t0.IsPunct("(")) {
      return false;
    }
    int depth = 0;
    for (size_t j = i; j < tokens_.size(); ++j) {
      const Token& t = tokens_[j];
      if (t.IsPunct("(")) {
        ++depth;
      } else if (t.IsPunct(")")) {
        --depth;
        if (depth == 0) {
          return j + 1 < tokens_.size() && tokens_[j + 1].IsPunct("=>");
        }
      } else if (t.Is(TokenKind::kEndOfFile)) {
        return false;
      }
    }
    return false;
  }

  Result<NodePtr> ParseArrowFunction() {
    NodePtr fn = NewNode(NodeKind::kArrowFunction);
    if (MatchKeyword("async")) {
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
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("=>"));
    fn->children.push_back(std::move(params));
    if (Peek().IsPunct("{")) {
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
      fn->children.push_back(std::move(body));
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(body, ParseAssignment());
      fn->children.push_back(std::move(body));
    }
    return fn;
  }

  bool IsAssignOp(const Token& token) const {
    if (!token.Is(TokenKind::kPunct)) {
      return false;
    }
    static const char* kOps[] = {"=", "+=", "-=", "*=", "/=", "%=", "&&=", "||=", "?\?=",
                                 "&=", "|=", "^=", "<<=", ">>=", "**="};
    for (const char* op : kOps) {
      if (token.text == op) {
        return true;
      }
    }
    return false;
  }

  Result<NodePtr> ParseAssignment() {
    NestingScope nesting(&depth_);
    TURNSTILE_RETURN_IF_ERROR(CheckNesting());
    if (LooksLikeArrowFunction()) {
      return ParseArrowFunction();
    }
    TURNSTILE_ASSIGN_OR_RETURN(left, ParseConditional());
    if (!IsAssignOp(Peek())) {
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
    if (!Peek().IsPunct("?") ) {
      return cond;
    }
    Advance();
    NodePtr node = NewNode(NodeKind::kConditionalExpr);
    TURNSTILE_ASSIGN_OR_RETURN(then_expr, ParseAssignment());
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct(":"));
    TURNSTILE_ASSIGN_OR_RETURN(else_expr, ParseAssignment());
    node->children.push_back(std::move(cond));
    node->children.push_back(std::move(then_expr));
    node->children.push_back(std::move(else_expr));
    return node;
  }

  // Operator precedence table for binary/logical operators (low to high).
  struct OpLevel {
    std::vector<const char*> ops;
    bool logical;
  };

  const std::vector<OpLevel>& Levels() const {
    static const std::vector<OpLevel> kLevels = {
        {{"??"}, true},
        {{"||"}, true},
        {{"&&"}, true},
        {{"|"}, false},
        {{"^"}, false},
        {{"&"}, false},
        {{"===", "!==", "==", "!="}, false},
        {{"<", ">", "<=", ">=", "in"}, false},
        {{"<<", ">>"}, false},
        {{"+", "-"}, false},
        {{"*", "/", "%"}, false},
        {{"**"}, false},
    };
    return kLevels;
  }

  bool PeekMatchesLevel(const OpLevel& level, std::string* matched) const {
    const Token& token = Peek();
    for (const char* op : level.ops) {
      if (token.IsPunct(op) || (std::string(op) == "in" && token.IsKeyword("in"))) {
        *matched = op;
        return true;
      }
    }
    return false;
  }

  // Precedence climbing over Levels(): every operator is left-associative,
  // so this builds the same tree (and numbers its nodes in the same order) as
  // one recursive production per level would, in one native frame per
  // operand instead of one per level.
  Result<NodePtr> ParseBinary(size_t min_level) {
    TURNSTILE_ASSIGN_OR_RETURN(left, ParseUnary());
    const auto& levels = Levels();
    std::string op;
    while (true) {
      size_t level_index = min_level;
      while (level_index < levels.size() && !PeekMatchesLevel(levels[level_index], &op)) {
        ++level_index;
      }
      if (level_index == levels.size()) {
        return left;
      }
      Advance();
      NodePtr node = NewNode(levels[level_index].logical ? NodeKind::kLogicalExpr
                                                         : NodeKind::kBinaryExpr);
      node->str = op;
      TURNSTILE_ASSIGN_OR_RETURN(right, ParseBinary(level_index + 1));
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
    const Token& token = Peek();
    if (token.IsPunct("!") || token.IsPunct("-") || token.IsPunct("+") || token.IsPunct("~") ||
        token.IsKeyword("typeof") || token.IsKeyword("delete")) {
      NodePtr node = NewNode(NodeKind::kUnaryExpr);
      node->str = Advance().text;
      TURNSTILE_ASSIGN_OR_RETURN(operand, ParseUnaryOperand());
      node->children.push_back(std::move(operand));
      return node;
    }
    if (token.IsKeyword("await")) {
      NodePtr node = NewNode(NodeKind::kAwaitExpr);
      Advance();
      TURNSTILE_ASSIGN_OR_RETURN(operand, ParseUnaryOperand());
      node->children.push_back(std::move(operand));
      return node;
    }
    if (token.IsPunct("++") || token.IsPunct("--")) {
      NodePtr node = NewNode(NodeKind::kUpdateExpr);
      node->str = Advance().text;
      node->num = 1;  // prefix
      TURNSTILE_ASSIGN_OR_RETURN(operand, ParseUnaryOperand());
      node->children.push_back(std::move(operand));
      return node;
    }
    return ParsePostfix();
  }

  Result<NodePtr> ParsePostfix() {
    TURNSTILE_ASSIGN_OR_RETURN(expr, ParseCallMember());
    if (Peek().IsPunct("++") || Peek().IsPunct("--")) {
      NodePtr node = NewNode(NodeKind::kUpdateExpr);
      node->str = Advance().text;
      node->num = 0;  // postfix
      node->children.push_back(std::move(expr));
      return node;
    }
    return expr;
  }

  Result<NodePtr> ParseArguments(NodePtr call) {
    TURNSTILE_RETURN_IF_ERROR(ExpectPunct("("));
    if (MatchPunct(")")) {
      return call;
    }
    while (true) {
      if (MatchPunct("...")) {
        NodePtr spread = NewNode(NodeKind::kSpreadElement);
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseAssignment());
        spread->children.push_back(std::move(arg));
        call->children.push_back(std::move(spread));
      } else {
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseAssignment());
        call->children.push_back(std::move(arg));
      }
      if (MatchPunct(",")) {
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
      return call;
    }
  }

  Result<NodePtr> ParseCallMember() {
    TURNSTILE_ASSIGN_OR_RETURN(expr, ParsePrimary());
    while (true) {
      if (Peek().IsPunct(".") || Peek().IsPunct("?.")) {
        bool optional = Peek().IsPunct("?.");
        Advance();
        if (!Peek().Is(TokenKind::kIdentifier) && !Peek().Is(TokenKind::kKeyword)) {
          return Fail("expected property name");
        }
        NodePtr member = NewNode(NodeKind::kMemberExpr);
        member->str = Advance().text;
        member->num = optional ? 1 : 0;
        member->children.push_back(std::move(expr));
        expr = std::move(member);
      } else if (Peek().IsPunct("[")) {
        Advance();
        NodePtr index = NewNode(NodeKind::kIndexExpr);
        TURNSTILE_ASSIGN_OR_RETURN(index_expr, ParseExpression());
        TURNSTILE_RETURN_IF_ERROR(ExpectPunct("]"));
        index->children.push_back(std::move(expr));
        index->children.push_back(std::move(index_expr));
        expr = std::move(index);
      } else if (Peek().IsPunct("(")) {
        NodePtr call = NewNode(NodeKind::kCallExpr);
        call->children.push_back(std::move(expr));
        TURNSTILE_ASSIGN_OR_RETURN(done, ParseArguments(std::move(call)));
        expr = std::move(done);
      } else {
        return expr;
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
      case TokenKind::kKeyword: {
        const std::string& kw = token.text;
        if (kw == "true" || kw == "false") {
          NodePtr node = NewNode(NodeKind::kBoolLit);
          node->num = (kw == "true") ? 1 : 0;
          Advance();
          return node;
        }
        if (kw == "null") {
          NodePtr node = NewNode(NodeKind::kNullLit);
          Advance();
          return node;
        }
        if (kw == "undefined") {
          NodePtr node = NewNode(NodeKind::kUndefinedLit);
          Advance();
          return node;
        }
        if (kw == "this") {
          NodePtr node = NewNode(NodeKind::kThisExpr);
          Advance();
          return node;
        }
        if (kw == "function") {
          return ParseFunctionExpr(/*is_async=*/false);
        }
        if (kw == "async" && Peek(1).IsKeyword("function")) {
          Advance();
          return ParseFunctionExpr(/*is_async=*/true);
        }
        if (kw == "async" && LooksLikeArrowFunction()) {
          return ParseArrowFunction();
        }
        if (kw == "new") {
          return ParseNewExpr();
        }
        return Fail("unexpected keyword '" + kw + "' in expression");
      }
      case TokenKind::kPunct: {
        if (token.text == "(") {
          Advance();
          TURNSTILE_ASSIGN_OR_RETURN(expr, ParseExpression());
          TURNSTILE_RETURN_IF_ERROR(ExpectPunct(")"));
          return expr;
        }
        if (token.text == "[") {
          return ParseArrayLiteral();
        }
        if (token.text == "{") {
          return ParseObjectLiteral();
        }
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
    while (Peek().IsPunct(".")) {
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
    if (Peek().IsPunct("(")) {
      TURNSTILE_ASSIGN_OR_RETURN(done, ParseArguments(std::move(node)));
      return done;
    }
    return node;
  }

  Result<NodePtr> ParseArrayLiteral() {
    NodePtr array = NewNode(NodeKind::kArrayLit);
    Advance();  // [
    if (MatchPunct("]")) {
      return array;
    }
    while (true) {
      if (MatchPunct("...")) {
        NodePtr spread = NewNode(NodeKind::kSpreadElement);
        TURNSTILE_ASSIGN_OR_RETURN(arg, ParseAssignment());
        spread->children.push_back(std::move(arg));
        array->children.push_back(std::move(spread));
      } else {
        TURNSTILE_ASSIGN_OR_RETURN(element, ParseAssignment());
        array->children.push_back(std::move(element));
      }
      if (MatchPunct(",")) {
        if (MatchPunct("]")) {  // trailing comma
          return array;
        }
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct("]"));
      return array;
    }
  }

  Result<NodePtr> ParseObjectLiteral() {
    NodePtr object = NewNode(NodeKind::kObjectLit);
    Advance();  // {
    if (MatchPunct("}")) {
      return object;
    }
    while (true) {
      NodePtr prop = NewNode(NodeKind::kProperty);
      if (Peek().IsPunct("[")) {
        // Computed key: [expr]: value
        Advance();
        prop->num = 1;
        TURNSTILE_ASSIGN_OR_RETURN(key, ParseAssignment());
        TURNSTILE_RETURN_IF_ERROR(ExpectPunct("]"));
        TURNSTILE_RETURN_IF_ERROR(ExpectPunct(":"));
        TURNSTILE_ASSIGN_OR_RETURN(value, ParseAssignment());
        prop->children.push_back(std::move(key));
        prop->children.push_back(std::move(value));
      } else if (Peek().Is(TokenKind::kString)) {
        prop->str = Advance().text;
        TURNSTILE_RETURN_IF_ERROR(ExpectPunct(":"));
        TURNSTILE_ASSIGN_OR_RETURN(value, ParseAssignment());
        prop->children.push_back(std::move(value));
      } else if (Peek().Is(TokenKind::kIdentifier) || Peek().Is(TokenKind::kKeyword)) {
        prop->str = Advance().text;
        if (Peek().IsPunct("(")) {
          // Method shorthand: name(params) { ... }
          NodePtr fn = NewNode(NodeKind::kFunctionExpr);
          TURNSTILE_ASSIGN_OR_RETURN(params, ParseParams());
          TURNSTILE_ASSIGN_OR_RETURN(body, ParseBlock());
          fn->children.push_back(std::move(params));
          fn->children.push_back(std::move(body));
          prop->children.push_back(std::move(fn));
        } else if (MatchPunct(":")) {
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
      if (MatchPunct(",")) {
        if (MatchPunct("}")) {  // trailing comma
          return object;
        }
        continue;
      }
      TURNSTILE_RETURN_IF_ERROR(ExpectPunct("}"));
      return object;
    }
  }

  std::vector<Token> tokens_;
  std::string source_name_;
  size_t pos_ = 0;
  int next_id_ = 0;
  int depth_ = 0;  // current nesting (see kMaxParseNesting)
};

}  // namespace

Result<Program> ParseProgram(std::string_view source, std::string source_name) {
  Stopwatch parse_watch;
  TURNSTILE_ASSIGN_OR_RETURN(tokens, Lex(source));
  Result<Program> program = Parser(std::move(tokens), std::move(source_name)).Run();
  obs::Metrics::Global()
      .GetHistogram("lang.parse_seconds")
      ->Observe(parse_watch.ElapsedSeconds());
  return program;
}

int RenumberNodes(Program* program) {
  int next_id = 0;
  ForEachNode(program->root, [&next_id](const NodePtr& node) { node->id = next_id++; });
  program->node_count = next_id;
  return next_id;
}

}  // namespace turnstile
