#include "src/lang/lexer.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace turnstile {
namespace {

std::vector<Token> MustLex(std::string_view source) {
  auto result = Lex(source);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or({});
}

// The lexer's error text for `source`, or "" when it lexes.
std::string LexError(std::string_view source) {
  auto result = Lex(source);
  return result.ok() ? "" : result.status().message();
}

// "kind:text" for every token but the final end of input.
std::vector<std::string> Spell(std::string_view source) {
  std::vector<std::string> out;
  for (const Token& token : MustLex(source)) {
    if (token.kind == TokenKind::kEndOfFile) {
      break;
    }
    const char* kind = token.kind == TokenKind::kIdentifier ? "id"
                       : token.kind == TokenKind::kNumber   ? "num"
                       : token.kind == TokenKind::kString   ? "str"
                       : token.kind == TokenKind::kKeyword  ? "kw"
                                                            : "p";
    out.push_back(std::string(kind) + ":" + std::string(token.text));
  }
  return out;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto tokens = MustLex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEndOfFile);
  EXPECT_EQ(tokens[0].text, "");
  EXPECT_EQ(tokens[0].loc.ToString(), "1:1");
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = MustLex("let foo = bar;");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "let");
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "foo");
  EXPECT_EQ(tokens[2].kind, TokenKind::kPunct);
  EXPECT_EQ(tokens[2].text, "=");
  EXPECT_EQ(tokens[3].text, "bar");
  EXPECT_EQ(tokens[4].kind, TokenKind::kPunct);
  EXPECT_EQ(tokens[4].text, ";");
}

TEST(LexerTest, DollarAndUnderscoreIdentifiers) {
  auto tokens = MustLex("$map _priv $1");
  EXPECT_EQ(tokens[0].text, "$map");
  EXPECT_EQ(tokens[1].text, "_priv");
  EXPECT_EQ(tokens[2].text, "$1");
}

TEST(LexerTest, Numbers) {
  auto tokens = MustLex("42 3.25 0x1f 1e3 2e-2");
  EXPECT_DOUBLE_EQ(tokens[0].number, 42);
  EXPECT_DOUBLE_EQ(tokens[1].number, 3.25);
  EXPECT_DOUBLE_EQ(tokens[2].number, 31);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1000);
  EXPECT_DOUBLE_EQ(tokens[4].number, 0.02);
}

// Every number token's value is bit-identical to strtod over its spelling,
// whichever path the lexer takes to compute it.
TEST(LexerTest, NumberBitsMatchStrtod) {
  const char* kSpellings[] = {
      "0",     "7",        "42",      "0x1F",    "0X1f",   "0xffffffffffffffff",
      "1e3",   "2e-2",     "1E+2",    "3.25",    "0.1",    "00012",
      "1.5e300", "1e400",  "123456789012345",     "999999999999999",
      "1234567890123456",  "9007199254740993",    "12345678901234567890123",
      "4.35",  "0.000001", "18446744073709551616",
  };
  for (const char* spelling : kSpellings) {
    auto tokens = MustLex(spelling);
    ASSERT_EQ(tokens.size(), 2u) << spelling;
    EXPECT_EQ(tokens[0].kind, TokenKind::kNumber) << spelling;
    EXPECT_EQ(tokens[0].text, spelling);
    EXPECT_EQ(Bits(tokens[0].number), Bits(std::strtod(spelling, nullptr))) << spelling;
  }
}

TEST(LexerTest, NumberBoundaries) {
  // An exponent needs digits; a fraction needs a digit after the dot; a
  // number never starts with a dot.
  EXPECT_EQ(Spell("1e"), (std::vector<std::string>{"num:1", "id:e"}));
  EXPECT_EQ(Spell("1e+"), (std::vector<std::string>{"num:1", "id:e", "p:+"}));
  EXPECT_EQ(Spell("1.e3"), (std::vector<std::string>{"num:1", "p:.", "id:e3"}));
  EXPECT_EQ(Spell("x.5"), (std::vector<std::string>{"id:x", "p:.", "num:5"}));
  EXPECT_EQ(Spell(".5"), (std::vector<std::string>{"p:.", "num:5"}));
  EXPECT_EQ(Spell("1.5.2"), (std::vector<std::string>{"num:1.5", "p:.", "num:2"}));
  EXPECT_EQ(Spell("0x"), (std::vector<std::string>{"num:0x"}));
  EXPECT_EQ(Spell("0xg"), (std::vector<std::string>{"num:0x", "id:g"}));
  EXPECT_EQ(Spell("0x1p3"), (std::vector<std::string>{"num:0x1", "id:p3"}));
  EXPECT_EQ(Spell("12abc"), (std::vector<std::string>{"num:12", "id:abc"}));
  EXPECT_EQ(Bits(MustLex("0x")[0].number), Bits(0.0));
  EXPECT_EQ(Bits(MustLex("0x1p3")[0].number), Bits(1.0));
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = MustLex(R"('a\'b' "c\nd" `tpl`)");
  EXPECT_EQ(tokens[0].text, "a'b");
  EXPECT_EQ(tokens[1].text, "c\nd");
  EXPECT_EQ(tokens[2].text, "tpl");
}

TEST(LexerTest, EveryEscapeDecodes) {
  auto tokens = MustLex("\"\\n\\t\\r\\0\\\\\\'\\\"\\`\\q\\\nz\" 'plain' \"\"");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, std::string("\n\t\r\0\\'\"`qz", 10));
  EXPECT_EQ(tokens[1].text, "plain");
  EXPECT_EQ(tokens[2].text, "");
  // The line continuation moved the line counter.
  EXPECT_EQ(tokens[1].loc.ToString(), "2:4");
}

TEST(LexerTest, ManyEscapedStringsKeepTheirValues) {
  std::string source;
  for (int i = 0; i < 200; ++i) {
    source += "'v" + std::to_string(i) + "\\n' ";
  }
  auto tokens = MustLex(source);
  ASSERT_EQ(tokens.size(), 201u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(tokens[i].text, "v" + std::to_string(i) + "\n");
  }
}

TEST(LexerTest, MultiCharPunctuatorsLongestMatch) {
  auto tokens = MustLex("a === b !== c => d ... e ?. f ?? g");
  EXPECT_EQ(tokens[1].text, "===");
  EXPECT_EQ(tokens[3].text, "!==");
  EXPECT_EQ(tokens[5].text, "=>");
  EXPECT_EQ(tokens[7].text, "...");
  EXPECT_EQ(tokens[9].text, "?.");
  EXPECT_EQ(tokens[11].text, "??");
  for (size_t i = 1; i < 12; i += 2) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kPunct) << i;
  }
}

TEST(LexerTest, EveryPunctuatorLexesAlone) {
  const char* kPunctuators[] = {
      "===", "!==", "**=", "...", "<<=", ">>=", "&&=", "||=", "?\?=", "==", "!=",
      "<=",  ">=",  "&&",  "||",  "??",  "?.",  "=>",  "++",  "--",   "+=", "-=",
      "*=",  "/=",  "%=",  "&=",  "|=",  "^=",  "<<",  ">>",  "**",   "+",  "-",
      "*",   "/",   "%",   "=",   "<",   ">",   "!",   "?",   ":",    ";",  ",",
      ".",   "(",   ")",   "[",   "]",   "{",   "}",   "&",   "|",    "^",  "~",
  };
  for (const char* spelling : kPunctuators) {
    EXPECT_EQ(Spell(spelling), (std::vector<std::string>{std::string("p:") + spelling}))
        << spelling;
    EXPECT_EQ(Spell(std::string("a") + spelling + "b"),
              (std::vector<std::string>{"id:a", std::string("p:") + spelling, "id:b"}))
        << spelling;
  }
}

TEST(LexerTest, GluedPunctuatorsSplitLongestFirst) {
  struct Case {
    const char* source;
    std::vector<std::string> tokens;
  };
  const Case kCases[] = {
      {"a?.b", {"id:a", "p:?.", "id:b"}},
      {"x??=y", {"id:x", "p:?\?=", "id:y"}},
      {"a...b", {"id:a", "p:...", "id:b"}},
      {"a=>b", {"id:a", "p:=>", "id:b"}},
      {"a<<=b", {"id:a", "p:<<=", "id:b"}},
      {"a!==b", {"id:a", "p:!==", "id:b"}},
      {"a---b", {"id:a", "p:--", "p:-", "id:b"}},
      {"a+++b", {"id:a", "p:++", "p:+", "id:b"}},
      {"a.....b", {"id:a", "p:...", "p:.", "p:.", "id:b"}},
      {"a..b", {"id:a", "p:.", "p:.", "id:b"}},
      {"a====b", {"id:a", "p:===", "p:=", "id:b"}},
      {"a>>>b", {"id:a", "p:>>", "p:>", "id:b"}},
      {"a>>>=b", {"id:a", "p:>>", "p:>=", "id:b"}},
      {"a***b", {"id:a", "p:**", "p:*", "id:b"}},
      {"a?.5", {"id:a", "p:?.", "num:5"}},
      {"!!a", {"p:!", "p:!", "id:a"}},
      {"a&&&b", {"id:a", "p:&&", "p:&", "id:b"}},
      {"a|||b", {"id:a", "p:||", "p:|", "id:b"}},
      {"a???b", {"id:a", "p:??", "p:?", "id:b"}},
      {"a=>=b", {"id:a", "p:=>", "p:=", "id:b"}},
      {"f()[0]{}", {"id:f", "p:(", "p:)", "p:[", "num:0", "p:]", "p:{", "p:}"}},
      {"a/b//c\nd", {"id:a", "p:/", "id:b", "id:d"}},
      {"a/ *b*/c", {"id:a", "p:/", "p:*", "id:b", "p:*", "p:/", "id:c"}},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(Spell(c.source), c.tokens) << c.source;
  }
}

TEST(LexerTest, KeywordsAreWholeWords) {
  const char* kKeywords[] = {
      "let",   "const",  "var",    "function", "return",    "if",    "else",  "while",
      "for",   "of",     "break",  "continue", "true",      "false", "null",  "undefined",
      "new",   "class",  "extends", "this",    "typeof",    "delete", "in",   "try",
      "catch", "finally", "throw", "await",    "async",     "static",
  };
  for (const char* keyword : kKeywords) {
    const std::string kw(keyword);
    EXPECT_EQ(Spell(kw), (std::vector<std::string>{"kw:" + kw})) << kw;
    EXPECT_EQ(Spell(kw + "x"), (std::vector<std::string>{"id:" + kw + "x"})) << kw;
    EXPECT_EQ(Spell(kw + "_"), (std::vector<std::string>{"id:" + kw + "_"})) << kw;
    EXPECT_EQ(Spell(kw + "1"), (std::vector<std::string>{"id:" + kw + "1"})) << kw;
    EXPECT_EQ(Spell("$" + kw), (std::vector<std::string>{"id:$" + kw})) << kw;
    EXPECT_EQ(Spell(kw.substr(0, kw.size() - 1)),
              (std::vector<std::string>{"id:" + kw.substr(0, kw.size() - 1)}))
        << kw;
    EXPECT_EQ(Spell(kw + "(x)"), (std::vector<std::string>{"kw:" + kw, "p:(", "id:x", "p:)"}))
        << kw;
  }
  EXPECT_EQ(Spell("letx inx thisy Let IN"),
            (std::vector<std::string>{"id:letx", "id:inx", "id:thisy", "id:Let", "id:IN"}));
  EXPECT_EQ(Spell("get set yield import export static"),
            (std::vector<std::string>{"id:get", "id:set", "id:yield", "id:import", "id:export",
                                      "kw:static"}));
}

// The lexer's keyword switch and the X-macro list behind `Tok` must agree.
TEST(LexerTest, EveryKeywordCodeRoundTripsThroughItsSpelling) {
  for (size_t i = 1; i < kTokCount; ++i) {
    const Tok code = static_cast<Tok>(i);
    const std::string_view spelling = Spelling(code);
    EXPECT_EQ(TokenCode(spelling), code) << spelling;
    auto tokens = MustLex(spelling);
    ASSERT_EQ(tokens.size(), 2u) << spelling;
    EXPECT_EQ(tokens[0].code, code) << spelling;
    EXPECT_EQ(tokens[0].text, spelling);
  }
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = MustLex("a // line comment\n/* block\ncomment */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[1].loc.ToString(), "3:12");
}

TEST(LexerTest, LineAndColumnTracking) {
  auto tokens = MustLex("a\n  b");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[0].loc.column, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[1].loc.column, 3);
}

TEST(LexerTest, EveryTokenKindCarriesItsLocation) {
  auto tokens = MustLex("let x =\t0x1F +\r\n  'a\\tb' `t\nu` ... y\v\f\n");
  std::vector<std::string> locs;
  for (const Token& token : tokens) {
    locs.push_back(token.loc.ToString());
  }
  EXPECT_EQ(locs, (std::vector<std::string>{"1:1", "1:5", "1:7", "1:9", "1:14", "2:3", "2:10",
                                            "3:4", "3:8", "4:1"}));
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_EQ(LexError("\"abc"), "unterminated string literal at 1:5");
  EXPECT_EQ(LexError("x\n  'ab"), "unterminated string literal at 2:6");
  EXPECT_EQ(LexError("`a\nb"), "unterminated string literal at 2:2");
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  EXPECT_EQ(LexError("/* never closed"), "unterminated block comment at 1:16");
  EXPECT_EQ(LexError("a /* x\n y *"), "unterminated block comment at 2:5");
}

TEST(LexerTest, UnterminatedEscapeFails) {
  EXPECT_EQ(LexError("\"a\\"), "unterminated escape sequence at 1:4");
}

TEST(LexerTest, NewlineInPlainStringFails) {
  EXPECT_EQ(LexError("\"a\nb\""), "newline in string literal at 1:3");
  EXPECT_EQ(LexError("x;\n'ab\n'"), "newline in string literal at 2:4");
}

TEST(LexerTest, TemplateLiteralAllowsNewline) {
  auto tokens = MustLex("`a\nb`");
  EXPECT_EQ(tokens[0].text, "a\nb");
}

TEST(LexerTest, UnknownCharacterFails) {
  EXPECT_EQ(LexError("a # b"), "unexpected character '#' at 1:3");
  EXPECT_EQ(LexError("a\n\n  @"), "unexpected character '@' at 3:3");
  EXPECT_EQ(LexError("x = \"ok\";\n#"), "unexpected character '#' at 2:1");
  EXPECT_EQ(LexError("\\"), "unexpected character '\\' at 1:1");
  EXPECT_EQ(LexError(std::string_view("a\0b", 3)),
            std::string("unexpected character '") + '\0' + "' at 1:2");
  EXPECT_EQ(LexError("caf\xc3\xa9"), "unexpected character '\xc3' at 1:4");
}

}  // namespace
}  // namespace turnstile
