// Token definitions for MiniScript, the JavaScript-like language used by the
// Turnstile reproduction as its application language substrate.
//
// A token never owns its text. `Token::text` views the source it was lexed
// from, except for a string literal with escapes, whose decoded value lives
// in storage the token stream owns (held by its end-of-input token). So a
// token is valid only while both its source and its stream live.
#ifndef TURNSTILE_SRC_LANG_TOKEN_H_
#define TURNSTILE_SRC_LANG_TOKEN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace turnstile {

enum class TokenKind : uint8_t {
  kEndOfFile,
  kIdentifier,   // foo
  kNumber,       // 42, 3.14, 0x1f
  kString,       // "..." or '...'
  kKeyword,      // let const var function class ...
  kPunct,        // operators and punctuation
};

// X(code, spelling) for every punctuator.
#define TURNSTILE_PUNCTUATORS(X)                                                           \
  X(kLParen, "(") X(kRParen, ")") X(kLBracket, "[") X(kRBracket, "]") X(kLBrace, "{")     \
  X(kRBrace, "}") X(kSemicolon, ";") X(kComma, ",") X(kColon, ":") X(kDot, ".")           \
  X(kEllipsis, "...") X(kQuestion, "?") X(kQuestionDot, "?.") X(kArrow, "=>")             \
  X(kPlusPlus, "++") X(kMinusMinus, "--") X(kBang, "!") X(kTilde, "~") X(kPlus, "+")      \
  X(kMinus, "-") X(kStar, "*") X(kSlash, "/") X(kPercent, "%") X(kStarStar, "**")         \
  X(kLess, "<") X(kGreater, ">") X(kLessEq, "<=") X(kGreaterEq, ">=") X(kEqEq, "==")      \
  X(kBangEq, "!=") X(kEqEqEq, "===") X(kBangEqEq, "!==") X(kShl, "<<") X(kShr, ">>")      \
  X(kAmp, "&") X(kPipe, "|") X(kCaret, "^") X(kAmpAmp, "&&") X(kPipePipe, "||")           \
  X(kQuestionQuestion, "??") X(kAssign, "=") X(kPlusAssign, "+=") X(kMinusAssign, "-=")   \
  X(kStarAssign, "*=") X(kSlashAssign, "/=") X(kPercentAssign, "%=")                      \
  X(kStarStarAssign, "**=") X(kShlAssign, "<<=") X(kShrAssign, ">>=")                     \
  X(kAmpAssign, "&=") X(kPipeAssign, "|=") X(kCaretAssign, "^=")                          \
  X(kAmpAmpAssign, "&&=") X(kPipePipeAssign, "||=") X(kQuestionQuestionAssign, "?\?=")

// X(code, spelling) for every reserved word.
#define TURNSTILE_KEYWORDS(X)                                                                \
  X(kLet, "let") X(kConst, "const") X(kVar, "var") X(kFunction, "function")                 \
  X(kReturn, "return") X(kIf, "if") X(kElse, "else") X(kWhile, "while") X(kFor, "for")      \
  X(kOf, "of") X(kBreak, "break") X(kContinue, "continue") X(kTrue, "true")                 \
  X(kFalse, "false") X(kNull, "null") X(kUndefined, "undefined") X(kNew, "new")             \
  X(kClass, "class") X(kExtends, "extends") X(kThis, "this") X(kTypeof, "typeof")           \
  X(kDelete, "delete") X(kIn, "in") X(kTry, "try") X(kCatch, "catch")                       \
  X(kFinally, "finally") X(kThrow, "throw") X(kAwait, "await") X(kAsync, "async")           \
  X(kStatic, "static")

// The code of a punctuator or keyword token; kNone for every other token.
enum class Tok : uint8_t {
  kNone,
#define TURNSTILE_TOK_CODE(code, spelling) code,
  TURNSTILE_PUNCTUATORS(TURNSTILE_TOK_CODE) TURNSTILE_KEYWORDS(TURNSTILE_TOK_CODE)
#undef TURNSTILE_TOK_CODE
  kCount,
};

inline constexpr size_t kTokCount = static_cast<size_t>(Tok::kCount);

// The source spelling of a punctuator or keyword code ("" for kNone).
inline std::string_view Spelling(Tok code) {
  static constexpr std::string_view kSpellings[kTokCount] = {
      "",
#define TURNSTILE_TOK_SPELLING(code, spelling) spelling,
      TURNSTILE_PUNCTUATORS(TURNSTILE_TOK_SPELLING) TURNSTILE_KEYWORDS(TURNSTILE_TOK_SPELLING)
#undef TURNSTILE_TOK_SPELLING
  };
  return kSpellings[static_cast<size_t>(code)];
}

// The code spelled `word` if it is a keyword, else kNone.
Tok KeywordCode(std::string_view word);

// The code spelled exactly `spelling` if it is a punctuator or keyword, else
// kNone.
Tok TokenCode(std::string_view spelling);

// Binary and logical operators by precedence level, low to high: 0 `??`,
// 1 `||`, 2 `&&`, 3 `|`, 4 `^`, 5 `&`, 6 equality, 7 relational and `in`,
// 8 shifts, 9 additive, 10 multiplicative, 11 `**`. Every level is
// left-associative; levels up to kLastLogicalLevel build kLogicalExpr nodes.
inline constexpr int kLastLogicalLevel = 2;
inline constexpr int kBinaryLevels = 12;

struct OperatorInfo {
  int8_t binary_level;  // -1: not a binary operator
  bool assign;          // `=` and the compound assignments
};

constexpr OperatorInfo OperatorOf(Tok code) {
  switch (code) {
    case Tok::kQuestionQuestion: return {0, false};
    case Tok::kPipePipe: return {1, false};
    case Tok::kAmpAmp: return {2, false};
    case Tok::kPipe: return {3, false};
    case Tok::kCaret: return {4, false};
    case Tok::kAmp: return {5, false};
    case Tok::kEqEqEq:
    case Tok::kBangEqEq:
    case Tok::kEqEq:
    case Tok::kBangEq: return {6, false};
    case Tok::kLess:
    case Tok::kGreater:
    case Tok::kLessEq:
    case Tok::kGreaterEq:
    case Tok::kIn: return {7, false};
    case Tok::kShl:
    case Tok::kShr: return {8, false};
    case Tok::kPlus:
    case Tok::kMinus: return {9, false};
    case Tok::kStar:
    case Tok::kSlash:
    case Tok::kPercent: return {10, false};
    case Tok::kStarStar: return {11, false};
    case Tok::kAssign:
    case Tok::kPlusAssign:
    case Tok::kMinusAssign:
    case Tok::kStarAssign:
    case Tok::kSlashAssign:
    case Tok::kPercentAssign:
    case Tok::kAmpAmpAssign:
    case Tok::kPipePipeAssign:
    case Tok::kQuestionQuestionAssign:
    case Tok::kAmpAssign:
    case Tok::kPipeAssign:
    case Tok::kCaretAssign:
    case Tok::kShlAssign:
    case Tok::kShrAssign:
    case Tok::kStarStarAssign: return {-1, true};
    default: return {-1, false};
  }
}

// OperatorOf, indexed by code.
inline constexpr std::array<OperatorInfo, kTokCount> kOperatorTable = [] {
  std::array<OperatorInfo, kTokCount> table{};
  for (size_t i = 0; i < kTokCount; ++i) {
    table[i] = OperatorOf(static_cast<Tok>(i));
  }
  return table;
}();
static_assert(kOperatorTable[static_cast<size_t>(Tok::kAssign)].binary_level == -1 &&
              kOperatorTable[static_cast<size_t>(Tok::kAssign)].assign &&
              kOperatorTable[static_cast<size_t>(Tok::kIn)].binary_level == 7);

inline const OperatorInfo& Operator(Tok code) {
  return kOperatorTable[static_cast<size_t>(code)];
}

struct SourceLocation {
  int line = 0;    // 1-based
  int column = 0;  // 1-based

  std::string ToString() const {
    return std::to_string(line) + ":" + std::to_string(column);
  }
};

struct Token {
  TokenKind kind = TokenKind::kEndOfFile;
  Tok code = Tok::kNone;  // set for kPunct and kKeyword
  SourceLocation loc;
  // The source spelling; for a kString, the decoded value ("" at end of input).
  std::string_view text;
  double number = 0.0;  // for kNumber
  // Set on the end-of-input token only: the stream's decoded string values,
  // which kString tokens with escapes view.
  std::shared_ptr<const std::string> decoded;

  bool Is(TokenKind k) const { return kind == k; }
  bool Is(Tok c) const { return code == c; }
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_LANG_TOKEN_H_
