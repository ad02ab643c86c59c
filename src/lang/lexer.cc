#include "src/lang/lexer.h"

#include <array>
#include <cstdlib>
#include <cstring>

namespace turnstile {

namespace {

// Byte classes, as bit flags. ASCII only: every byte >= 0x80 is "other",
// as under the C locale's <cctype>.
enum : uint8_t {
  kSpace = 1,       // ' ' \t \n \v \f \r
  kIdentStart = 2,  // A-Z a-z _ $
  kIdentPart = 4,   // identifier starts and 0-9
  kDigit = 8,       // 0-9
  kHexDigit = 16,   // 0-9 A-F a-f
  kQuote = 32,      // " ' `
};

constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> table{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[c] |= kSpace;
  }
  for (int c = 0; c < 26; ++c) {
    table['a' + c] |= kIdentStart | kIdentPart;
    table['A' + c] |= kIdentStart | kIdentPart;
  }
  table['_'] |= kIdentStart | kIdentPart;
  table['$'] |= kIdentStart | kIdentPart;
  for (int c = '0'; c <= '9'; ++c) {
    table[c] |= kIdentPart | kDigit | kHexDigit;
  }
  for (int c = 0; c < 6; ++c) {
    table['a' + c] |= kHexDigit;
    table['A' + c] |= kHexDigit;
  }
  for (unsigned char c : {'"', '\'', '`'}) {
    table[c] |= kQuote;
  }
  return table;
}();

bool Is(char c, uint8_t classes) {
  return (kByteClass[static_cast<unsigned char>(c)] & classes) != 0;
}

// The longest punctuator at the start of `rest` (non-empty); sets `*length`.
// kNone if no punctuator starts there.
Tok MatchPunctuator(std::string_view rest, size_t* length) {
  const auto at = [rest](size_t i) { return i < rest.size() ? rest[i] : '\0'; };
  const auto take = [length](size_t n, Tok code) {
    *length = n;
    return code;
  };
  const char c1 = at(1);
  switch (rest[0]) {
    case '(': return take(1, Tok::kLParen);
    case ')': return take(1, Tok::kRParen);
    case '[': return take(1, Tok::kLBracket);
    case ']': return take(1, Tok::kRBracket);
    case '{': return take(1, Tok::kLBrace);
    case '}': return take(1, Tok::kRBrace);
    case ';': return take(1, Tok::kSemicolon);
    case ',': return take(1, Tok::kComma);
    case ':': return take(1, Tok::kColon);
    case '~': return take(1, Tok::kTilde);
    case '.':
      return c1 == '.' && at(2) == '.' ? take(3, Tok::kEllipsis) : take(1, Tok::kDot);
    case '=':
      if (c1 == '=') {
        return at(2) == '=' ? take(3, Tok::kEqEqEq) : take(2, Tok::kEqEq);
      }
      return c1 == '>' ? take(2, Tok::kArrow) : take(1, Tok::kAssign);
    case '!':
      if (c1 == '=') {
        return at(2) == '=' ? take(3, Tok::kBangEqEq) : take(2, Tok::kBangEq);
      }
      return take(1, Tok::kBang);
    case '*':
      if (c1 == '*') {
        return at(2) == '=' ? take(3, Tok::kStarStarAssign) : take(2, Tok::kStarStar);
      }
      return c1 == '=' ? take(2, Tok::kStarAssign) : take(1, Tok::kStar);
    case '<':
      if (c1 == '<') {
        return at(2) == '=' ? take(3, Tok::kShlAssign) : take(2, Tok::kShl);
      }
      return c1 == '=' ? take(2, Tok::kLessEq) : take(1, Tok::kLess);
    case '>':
      if (c1 == '>') {
        return at(2) == '=' ? take(3, Tok::kShrAssign) : take(2, Tok::kShr);
      }
      return c1 == '=' ? take(2, Tok::kGreaterEq) : take(1, Tok::kGreater);
    case '&':
      if (c1 == '&') {
        return at(2) == '=' ? take(3, Tok::kAmpAmpAssign) : take(2, Tok::kAmpAmp);
      }
      return c1 == '=' ? take(2, Tok::kAmpAssign) : take(1, Tok::kAmp);
    case '|':
      if (c1 == '|') {
        return at(2) == '=' ? take(3, Tok::kPipePipeAssign) : take(2, Tok::kPipePipe);
      }
      return c1 == '=' ? take(2, Tok::kPipeAssign) : take(1, Tok::kPipe);
    case '?':
      if (c1 == '?') {
        return at(2) == '=' ? take(3, Tok::kQuestionQuestionAssign)
                            : take(2, Tok::kQuestionQuestion);
      }
      return c1 == '.' ? take(2, Tok::kQuestionDot) : take(1, Tok::kQuestion);
    case '+':
      if (c1 == '+') {
        return take(2, Tok::kPlusPlus);
      }
      return c1 == '=' ? take(2, Tok::kPlusAssign) : take(1, Tok::kPlus);
    case '-':
      if (c1 == '-') {
        return take(2, Tok::kMinusMinus);
      }
      return c1 == '=' ? take(2, Tok::kMinusAssign) : take(1, Tok::kMinus);
    case '/': return c1 == '=' ? take(2, Tok::kSlashAssign) : take(1, Tok::kSlash);
    case '%': return c1 == '=' ? take(2, Tok::kPercentAssign) : take(1, Tok::kPercent);
    case '^': return c1 == '=' ? take(2, Tok::kCaretAssign) : take(1, Tok::kCaret);
    default: return Tok::kNone;
  }
}

// strtod over exactly [begin, end), which the source does not terminate.
double ParseDouble(const char* begin, const char* end) {
  const size_t length = static_cast<size_t>(end - begin);
  char buffer[64];
  if (length < sizeof buffer) {
    std::memcpy(buffer, begin, length);
    buffer[length] = '\0';
    return std::strtod(buffer, nullptr);
  }
  return std::strtod(std::string(begin, end).c_str(), nullptr);
}

// Decimal integers of up to this many digits are exact in a double, so they
// skip strtod with bit-identical results.
constexpr size_t kMaxExactDigits = 15;

class Lexer {
 public:
  explicit Lexer(std::string_view source)
      : source_(source), p_(source.data()), end_(source.data() + source.size()),
        line_start_(source.data()) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    tokens.reserve(source_.size() / 4 + 2);  // the corpus averages ~3.5 bytes a token
    while (true) {
      if (!SkipTrivia()) {
        return error_;
      }
      Token& token = tokens.emplace_back();
      token.loc = Location();
      if (p_ == end_) {
        token.decoded = std::move(decoded_);
        return tokens;
      }
      const char c = *p_;
      bool ok = true;
      if (Is(c, kIdentStart)) {
        LexIdentifier(&token);
      } else if (Is(c, kDigit)) {
        LexNumber(&token);
      } else if (Is(c, kQuote)) {
        ok = LexString(&token);
      } else {
        ok = LexPunct(&token);
      }
      if (!ok) {
        return error_;
      }
    }
  }

 private:
  SourceLocation Location() const {
    return {line_, static_cast<int>(p_ - line_start_) + 1};
  }

  // Call with p_ on a '\n', before stepping past it.
  void CountNewline() {
    ++line_;
    line_start_ = p_ + 1;
  }

  bool Fail(const std::string& message) {
    error_ = ParseError(message + " at " + Location().ToString());
    return false;
  }

  bool SkipTrivia() {
    while (p_ < end_) {
      const char c = *p_;
      if (c == '\n') {
        CountNewline();
        ++p_;
      } else if (Is(c, kSpace)) {
        ++p_;
      } else if (c == '/' && p_ + 1 < end_ && p_[1] == '/') {
        const void* newline = std::memchr(p_, '\n', static_cast<size_t>(end_ - p_));
        p_ = newline != nullptr ? static_cast<const char*>(newline) : end_;
      } else if (c == '/' && p_ + 1 < end_ && p_[1] == '*') {
        p_ += 2;
        while (!(p_ + 1 < end_ && p_[0] == '*' && p_[1] == '/')) {
          if (p_ == end_) {
            return Fail("unterminated block comment");
          }
          if (*p_ == '\n') {
            CountNewline();
          }
          ++p_;
        }
        p_ += 2;
      } else {
        break;
      }
    }
    return true;
  }

  void LexIdentifier(Token* token) {
    const char* start = p_;
    ++p_;
    while (p_ < end_ && Is(*p_, kIdentPart)) {
      ++p_;
    }
    token->text = std::string_view(start, static_cast<size_t>(p_ - start));
    token->code = KeywordCode(token->text);
    token->kind = token->code == Tok::kNone ? TokenKind::kIdentifier : TokenKind::kKeyword;
  }

  bool AtClass(uint8_t classes) const { return p_ < end_ && Is(*p_, classes); }

  void LexNumber(Token* token) {
    token->kind = TokenKind::kNumber;
    const char* start = p_;
    bool exact_integer = false;
    uint64_t integer = 0;
    if (*p_ == '0' && p_ + 1 < end_ && (p_[1] == 'x' || p_[1] == 'X')) {
      p_ += 2;
      while (AtClass(kHexDigit)) {
        ++p_;
      }
    } else {
      exact_integer = true;
      while (AtClass(kDigit)) {
        integer = integer * 10 + static_cast<uint64_t>(*p_ - '0');
        ++p_;
      }
      if (p_ + 1 < end_ && *p_ == '.' && Is(p_[1], kDigit)) {
        exact_integer = false;
        ++p_;
        while (AtClass(kDigit)) {
          ++p_;
        }
      }
      if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
        const char* mark = p_;
        ++p_;
        if (p_ < end_ && (*p_ == '+' || *p_ == '-')) {
          ++p_;
        }
        if (AtClass(kDigit)) {
          exact_integer = false;
          while (AtClass(kDigit)) {
            ++p_;
          }
        } else {
          p_ = mark;  // not an exponent after all
        }
      }
    }
    const size_t length = static_cast<size_t>(p_ - start);
    token->text = std::string_view(start, length);
    token->number = exact_integer && length <= kMaxExactDigits ? static_cast<double>(integer)
                                                               : ParseDouble(start, p_);
  }

  bool LexString(Token* token) {
    token->kind = TokenKind::kString;
    const char quote = *p_;
    ++p_;  // opening quote
    const char* start = p_;
    // Without escapes the value is the source text between the quotes.
    while (p_ < end_ && *p_ != quote && *p_ != '\\') {
      if (*p_ == '\n') {
        if (quote != '`') {
          return Fail("newline in string literal");
        }
        CountNewline();
      }
      ++p_;
    }
    if (p_ == end_) {
      return Fail("unterminated string literal");
    }
    if (*p_ == quote) {
      token->text = std::string_view(start, static_cast<size_t>(p_ - start));
      ++p_;
      return true;
    }
    return LexEscapedString(token, quote, start);
  }

  // Decodes the rest of a string literal whose first escape is at p_, after
  // the plain prefix [prefix, p_), into the stream's decoded storage.
  bool LexEscapedString(Token* token, char quote, const char* prefix) {
    if (decoded_ == nullptr) {
      // No literal decodes to more bytes than its source spelling, so this
      // never reallocates and the views handed out stay valid.
      decoded_ = std::make_shared<std::string>();
      decoded_->reserve(source_.size());
    }
    std::string& value = *decoded_;
    const size_t offset = value.size();
    value.append(prefix, p_);
    while (true) {
      if (p_ == end_) {
        return Fail("unterminated string literal");
      }
      const char c = *p_;
      if (c == quote) {
        ++p_;
        break;
      }
      if (c == '\n') {
        if (quote != '`') {
          return Fail("newline in string literal");
        }
        CountNewline();
      }
      ++p_;
      if (c != '\\') {
        value += c;
        continue;
      }
      if (p_ == end_) {
        return Fail("unterminated escape sequence");
      }
      const char escape = *p_;
      if (escape == '\n') {
        CountNewline();
      }
      ++p_;
      switch (escape) {
        case 'n':
          value += '\n';
          break;
        case 't':
          value += '\t';
          break;
        case 'r':
          value += '\r';
          break;
        case '0':
          value += '\0';
          break;
        case '\n':
          break;  // line continuation
        default:
          value += escape;  // \\ \' \" \` and any other escaped byte
      }
    }
    token->text = std::string_view(value.data() + offset, value.size() - offset);
    return true;
  }

  bool LexPunct(Token* token) {
    size_t length = 0;
    const Tok code = MatchPunctuator(std::string_view(p_, static_cast<size_t>(end_ - p_)),
                                     &length);
    if (code == Tok::kNone) {
      return Fail(std::string("unexpected character '") + *p_ + "'");
    }
    token->kind = TokenKind::kPunct;
    token->code = code;
    token->text = std::string_view(p_, length);
    p_ += length;
    return true;
  }

  std::string_view source_;
  const char* p_;
  const char* end_;
  int line_ = 1;
  const char* line_start_;
  std::shared_ptr<std::string> decoded_;  // decoded values of escaped strings
  Status error_;
};

}  // namespace

Tok KeywordCode(std::string_view word) {
  // Dispatch on length and first byte; one compare confirms the candidate.
  const auto is = [word](std::string_view keyword, Tok code) {
    return word == keyword ? code : Tok::kNone;
  };
  if (word.size() < 2 || word.size() > 9) {
    return Tok::kNone;
  }
  const char first = word[0];
  switch (word.size()) {
    case 2:
      if (first == 'i') {
        return word[1] == 'f' ? Tok::kIf : word[1] == 'n' ? Tok::kIn : Tok::kNone;
      }
      return first == 'o' ? is("of", Tok::kOf) : Tok::kNone;
    case 3:
      switch (first) {
        case 'l': return is("let", Tok::kLet);
        case 'v': return is("var", Tok::kVar);
        case 'f': return is("for", Tok::kFor);
        case 'n': return is("new", Tok::kNew);
        case 't': return is("try", Tok::kTry);
        default: return Tok::kNone;
      }
    case 4:
      switch (first) {
        case 'e': return is("else", Tok::kElse);
        case 'n': return is("null", Tok::kNull);
        case 't': return word[1] == 'r' ? is("true", Tok::kTrue) : is("this", Tok::kThis);
        default: return Tok::kNone;
      }
    case 5:
      switch (first) {
        case 'c':
          return word[1] == 'o'   ? is("const", Tok::kConst)
                 : word[1] == 'l' ? is("class", Tok::kClass)
                                  : is("catch", Tok::kCatch);
        case 'w': return is("while", Tok::kWhile);
        case 'b': return is("break", Tok::kBreak);
        case 'f': return is("false", Tok::kFalse);
        case 't': return is("throw", Tok::kThrow);
        case 'a': return word[1] == 'w' ? is("await", Tok::kAwait) : is("async", Tok::kAsync);
        default: return Tok::kNone;
      }
    case 6:
      switch (first) {
        case 'r': return is("return", Tok::kReturn);
        case 't': return is("typeof", Tok::kTypeof);
        case 'd': return is("delete", Tok::kDelete);
        case 's': return is("static", Tok::kStatic);
        default: return Tok::kNone;
      }
    case 7:
      return first == 'e' ? is("extends", Tok::kExtends) : is("finally", Tok::kFinally);
    case 8:
      return first == 'f' ? is("function", Tok::kFunction) : is("continue", Tok::kContinue);
    default:  // 9
      return is("undefined", Tok::kUndefined);
  }
}

Tok TokenCode(std::string_view spelling) {
  if (spelling.empty()) {
    return Tok::kNone;
  }
  if (Is(spelling[0], kIdentStart)) {
    return KeywordCode(spelling);
  }
  size_t length = 0;
  const Tok code = MatchPunctuator(spelling, &length);
  return length == spelling.size() ? code : Tok::kNone;
}

Result<std::vector<Token>> Lex(std::string_view source) {
  return Lexer(source).Run();
}

}  // namespace turnstile
