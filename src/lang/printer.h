// Source-code generator for MiniScript ASTs.
//
// The instrumentor emits a rewritten tree; PrintProgram turns it back into
// compilable source. The printer inserts only the parentheses that the
// parser's precedence needs, so Parse(Print(t)) yields t again without
// nesting deeper than t did, and Print is a fixed point of Parse∘Print
// (tested).
#ifndef TURNSTILE_SRC_LANG_PRINTER_H_
#define TURNSTILE_SRC_LANG_PRINTER_H_

#include <string>

#include "src/lang/ast.h"

namespace turnstile {

// Renders a whole program with 2-space indentation.
std::string PrintProgram(const Program& program);
std::string PrintProgram(const NodePtr& root);

// Renders a single expression or statement subtree (no trailing newline for
// expressions).
std::string PrintNode(const NodePtr& node);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_LANG_PRINTER_H_
