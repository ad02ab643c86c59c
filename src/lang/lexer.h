// Hand-written lexer for MiniScript.
//
// Supported lexical grammar (a pragmatic ES6 subset):
//   - line comments (//) and block comments (/* */)
//   - identifiers and keywords
//   - decimal and hex number literals
//   - single- and double-quoted strings with the usual escapes
//   - template literals WITHOUT interpolation (`...`), lexed as plain strings
//   - multi-character punctuators, longest-match (===, !==, =>, ..., &&= etc.)
//
// Bytes are classified by a 256-entry table (ASCII only, like the C
// locale); punctuators are matched by a switch on their first byte and
// keywords by length and first byte, so lexing allocates nothing per token.
#ifndef TURNSTILE_SRC_LANG_LEXER_H_
#define TURNSTILE_SRC_LANG_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/lang/token.h"
#include "src/support/status.h"

namespace turnstile {

// Tokenizes `source`. On success the token stream always ends with a
// kEndOfFile token. The tokens view `source` (see src/lang/token.h): keep it
// alive for as long as the tokens.
Result<std::vector<Token>> Lex(std::string_view source);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_LANG_LEXER_H_
