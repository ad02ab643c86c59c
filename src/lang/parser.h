// Recursive-descent parser for MiniScript.
//
// The accepted language is the pragmatic ES6 subset described in
// src/lang/ast.h. Notable properties:
//   - semicolons are recommended but optional (the parser is newline-agnostic;
//     corpus sources always use semicolons)
//   - arrow functions, spread, classes, for-of, try/catch, async/await are
//     supported; `await x` is an expression node the interpreter evaluates as
//     `x` (promises are pass-through, matching the paper's treatment)
//   - `eval` is not part of the language (matching the paper)
#ifndef TURNSTILE_SRC_LANG_PARSER_H_
#define TURNSTILE_SRC_LANG_PARSER_H_

#include <string>
#include <string_view>

#include "src/lang/ast.h"
#include "src/support/status.h"

namespace turnstile {

// Deepest syntactic nesting ParseProgram accepts, counted across nested
// statements and blocks (function bodies included), parenthesized and other
// assignment-level subexpressions (array and object literal members,
// arguments, arrow bodies, ternary arms), unary chains, `new` chains, and
// every link of a left-associative chain (`a + b + c`, `o.a.b`, `f()()`,
// `a[0][0]`), each of which nests the tree one level deeper. Deeper input
// is a ParseError rather than a native stack overflow, in the parser or in
// the recursive passes over the tree it would have built.
inline constexpr int kMaxParseNesting = 512;

// Parses `source` into a Program. `source_name` is used in diagnostics and in
// policy injection points ("file" field).
Result<Program> ParseProgram(std::string_view source, std::string source_name = "<input>");

// Re-assigns dense node ids across the tree (used after instrumentation adds
// synthesized nodes). Returns the new node count.
int RenumberNodes(Program* program);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_LANG_PARSER_H_
