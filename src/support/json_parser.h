// The one JSON grammar in the tree: a single-pass recursive-descent parser
// templated on the tree it builds.
//
// Json::Parse instantiates it with a Json builder (src/support/json.cc) and
// the MiniScript JSON.parse builtin with a Value builder
// (src/interp/builtins.cc), so neither goes through an intermediate document.
// The grammar accepts // line comments (policies are written by hand) and
// trailing commas, and caps container nesting at kMaxJsonNesting: deeper input
// is a ParseError rather than a stack overflow.
//
// A Builder provides:
//   using Node = ...;    // a finished value; default-constructible
//   using Array = ...;   // an array under construction
//   using Object = ...;  // an object under construction
//   Node Null(); Node Bool(bool); Node Number(double); Node String(std::string);
//   Array BeginArray();   void Append(Array&, Node);            Node EndArray(Array);
//   Object BeginObject(); void Put(Object&, std::string, Node); Node EndObject(Object);
// A repeated key must keep its first position and take the last value.
#ifndef TURNSTILE_SRC_SUPPORT_JSON_PARSER_H_
#define TURNSTILE_SRC_SUPPORT_JSON_PARSER_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "src/support/status.h"

namespace turnstile {

// Deepest array/object nesting a JSON document may have.
inline constexpr int kMaxJsonNesting = 512;

template <typename Builder>
class JsonParser {
 public:
  using Node = typename Builder::Node;

  JsonParser(std::string_view text, Builder& builder) : text_(text), builder_(builder) {}

  Result<Node> Parse() {
    Node value;
    SkipWhitespace();
    if (!ParseValue(&value)) {
      return ParseError(std::move(error_));
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
      return ParseError(std::move(error_));
    }
    return value;
  }

 private:
  // Records the first error; every Parse* returns false from then on.
  bool Fail(const std::string& message) {
    error_ = message + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      // The C-locale isspace set, without a libc call per character.
      if (c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  bool ParseValue(Node* out) {
    if (AtEnd()) {
      return Fail("unexpected end of input");
    }
    switch (Peek()) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string text;
        if (!ParseString(&text)) {
          return false;
        }
        *out = builder_.String(std::move(text));
        return true;
      }
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(Node* out) {
    if (ConsumeLiteral("true")) {
      *out = builder_.Bool(true);
    } else if (ConsumeLiteral("false")) {
      *out = builder_.Bool(false);
    } else if (ConsumeLiteral("null")) {
      *out = builder_.Null();
    } else {
      return Fail("invalid literal");
    }
    return true;
  }

  bool ParseNumber(Node* out) {
    size_t start = pos_;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) {
      ++pos_;
    }
    while (!AtEnd() && ((Peek() >= '0' && Peek() <= '9') || Peek() == '.' ||
                        Peek() == 'e' || Peek() == 'E' || Peek() == '-' || Peek() == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    std::string_view digits = text_.substr(start, pos_ - start);
    bool negative = digits[0] == '-';
    if (negative || digits[0] == '+') {
      digits.remove_prefix(1);
    }
    // Integers of up to 15 digits are exact in a double at every step, so
    // this gives strtod's result without its cost.
    if (!digits.empty() && digits.size() <= 15 &&
        digits.find_first_not_of("0123456789") == std::string_view::npos) {
      double value = 0;
      for (char c : digits) {
        value = value * 10 + (c - '0');
      }
      *out = builder_.Number(negative ? -value : value);
      return true;
    }
    // strtod needs a terminated copy: the text after the token could extend
    // what it accepts (a hex "0x..." prefix, say).
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Fail("malformed number '" + token + "'");
    }
    *out = builder_.Number(value);
    return true;
  }

  // Parses the string starting at the opening quote into `out`.
  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      size_t stop = text_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) {
        pos_ = text_.size();
        return Fail("unterminated string");
      }
      out->append(text_.data() + pos_, stop - pos_);
      pos_ = stop + 1;
      if (text_[stop] == '"') {
        return true;
      }
      if (AtEnd()) {
        return Fail("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          unsigned code = 0;
          if (std::sscanf(hex.c_str(), "%4x", &code) != 1) {
            return Fail("malformed \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are not needed here).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  // Entered at an opening bracket; false once nesting exceeds the cap.
  bool Nest() {
    if (++depth_ > kMaxJsonNesting) {
      return Fail("nesting deeper than " + std::to_string(kMaxJsonNesting) + " levels");
    }
    ++pos_;
    return true;
  }

  bool ParseArray(Node* out) {
    if (!Nest()) {
      return false;
    }
    typename Builder::Array items = builder_.BeginArray();
    while (true) {
      SkipWhitespace();
      if (!AtEnd() && Peek() == ']') {  // empty array or trailing comma
        ++pos_;
        break;
      }
      Node item;
      if (!ParseValue(&item)) {
        return false;
      }
      builder_.Append(items, std::move(item));
      SkipWhitespace();
      if (AtEnd()) {
        return Fail("unterminated array");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        break;
      }
      return Fail("expected ',' or ']'");
    }
    --depth_;
    *out = builder_.EndArray(std::move(items));
    return true;
  }

  bool ParseObject(Node* out) {
    if (!Nest()) {
      return false;
    }
    typename Builder::Object fields = builder_.BeginObject();
    while (true) {
      SkipWhitespace();
      if (!AtEnd() && Peek() == '}') {  // empty object or trailing comma
        ++pos_;
        break;
      }
      if (AtEnd() || Peek() != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWhitespace();
      Node value;
      if (!ParseValue(&value)) {
        return false;
      }
      builder_.Put(fields, std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        return Fail("unterminated object");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        break;
      }
      return Fail("expected ',' or '}'");
    }
    --depth_;
    *out = builder_.EndObject(std::move(fields));
    return true;
  }

  std::string_view text_;
  Builder& builder_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_SUPPORT_JSON_PARSER_H_
