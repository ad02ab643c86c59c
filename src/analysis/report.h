// HTML dataflow report: renders analyzer findings over the source listing so
// a developer can visually inspect each privacy-sensitive path (the artifact's
// run-turnstile-single.js produces the same kind of page).
#ifndef TURNSTILE_SRC_ANALYSIS_REPORT_H_
#define TURNSTILE_SRC_ANALYSIS_REPORT_H_

#include <string>

#include "src/analysis/analyzer.h"
#include "src/dift/tracker.h"
#include "src/lang/ast.h"

namespace turnstile {

// Produces a self-contained HTML page: the numbered source listing with
// source/sink/path lines highlighted, plus one section per dataflow.
std::string RenderHtmlReport(const Program& program, const std::string& source,
                             const AnalysisResult& analysis);

// Plain-text variant for terminals (used by examples/analyze_app --report).
std::string RenderTextReport(const Program& program, const std::string& source,
                             const AnalysisResult& analysis);

// Renders a runtime violation's provenance chain as a human-readable
// multi-line explanation: which labeller attached each offending label, the
// flow node the message was injected at, the journey the message took
// (when the event log was enabled), and the forbidden flow itself.
std::string ExplainViolation(const Violation& violation);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_ANALYSIS_REPORT_H_
