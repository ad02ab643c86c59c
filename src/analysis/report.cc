#include "src/analysis/report.h"

#include <map>
#include <set>

#include "src/obs/metrics.h"
#include "src/support/stopwatch.h"
#include "src/support/strings.h"

namespace turnstile {

namespace {

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Classification of each source line for highlighting.
enum class LineRole { kPlain, kOnPath, kSource, kSink };

std::map<int, LineRole> ClassifyLines(const Program& program,
                                      const AnalysisResult& analysis) {
  std::map<int, LineRole> roles;
  std::map<int, SourceLocation> loc_by_id;
  ForEachNode(program.root, [&loc_by_id](const NodePtr& node) {
    loc_by_id[node->id] = node->loc;
  });
  for (int node : analysis.sensitive_ast_nodes) {
    auto it = loc_by_id.find(node);
    if (it != loc_by_id.end() && it->second.line > 0) {
      roles[it->second.line] = LineRole::kOnPath;
    }
  }
  for (const DataflowPath& path : analysis.paths) {
    if (path.source_loc.line > 0) {
      roles[path.source_loc.line] = LineRole::kSource;
    }
  }
  for (const DataflowPath& path : analysis.paths) {
    if (path.sink_loc.line > 0) {
      roles[path.sink_loc.line] = LineRole::kSink;
    }
  }
  return roles;
}

}  // namespace

std::string RenderHtmlReport(const Program& program, const std::string& source,
                             const AnalysisResult& analysis) {
  Stopwatch report_watch;
  std::map<int, LineRole> roles = ClassifyLines(program, analysis);
  std::string out;
  out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>Turnstile report: ";
  out += HtmlEscape(program.source_name);
  out += "</title>\n<style>\n"
         "body { font-family: sans-serif; margin: 2em; }\n"
         "pre { border: 1px solid #ccc; padding: 1em; }\n"
         ".line { display: block; }\n"
         ".num { color: #999; user-select: none; }\n"
         ".onpath { background: #fff3c4; }\n"
         ".source { background: #c8e6c9; font-weight: bold; }\n"
         ".sink { background: #ffcdd2; font-weight: bold; }\n"
         ".flow { margin: 0.5em 0; padding: 0.5em; border-left: 4px solid #b71c1c; }\n"
         "</style></head><body>\n";
  out += "<h1>Privacy-sensitive dataflows: " + HtmlEscape(program.source_name) + "</h1>\n";
  out += "<p>" + std::to_string(analysis.paths.size()) + " dataflow(s), " +
         std::to_string(analysis.stats.sources_found) + " source(s), " +
         std::to_string(analysis.stats.sinks_found) + " sink(s), " +
         std::to_string(analysis.sensitive_ast_nodes.size()) +
         " privacy-sensitive AST nodes.</p>\n";

  out += "<h2>Dataflows</h2>\n";
  if (analysis.paths.empty()) {
    out += "<p>No privacy-sensitive dataflows detected.</p>\n";
  }
  for (size_t i = 0; i < analysis.paths.size(); ++i) {
    const DataflowPath& path = analysis.paths[i];
    out += "<div class=\"flow\"><b>#" + std::to_string(i + 1) + "</b> " +
           HtmlEscape(path.source_description) + " (line " +
           std::to_string(path.source_loc.line) + ") &rarr; " +
           HtmlEscape(path.sink_description) + " (line " +
           std::to_string(path.sink_loc.line) + "), via " +
           std::to_string(path.via_ast_nodes.size()) + " expressions</div>\n";
  }

  out += "<h2>Source</h2>\n<pre>\n";
  std::vector<std::string> lines = StrSplit(source, '\n');
  for (size_t i = 0; i < lines.size(); ++i) {
    int line_number = static_cast<int>(i) + 1;
    const char* css = "";
    auto it = roles.find(line_number);
    if (it != roles.end()) {
      switch (it->second) {
        case LineRole::kSource:
          css = " source";
          break;
        case LineRole::kSink:
          css = " sink";
          break;
        case LineRole::kOnPath:
          css = " onpath";
          break;
        default:
          break;
      }
    }
    char num[16];
    std::snprintf(num, sizeof(num), "%4d", line_number);
    out += "<span class=\"line" + std::string(css) + "\"><span class=\"num\">" +
           std::string(num) + "</span>  " + HtmlEscape(lines[i]) + "</span>\n";
  }
  out += "</pre>\n</body></html>\n";
  obs::Metrics::Global()
      .GetHistogram("analysis.report_seconds")
      ->Observe(report_watch.ElapsedSeconds());
  return out;
}

std::string RenderTextReport(const Program& program, const std::string& source,
                             const AnalysisResult& analysis) {
  Stopwatch report_watch;
  std::map<int, LineRole> roles = ClassifyLines(program, analysis);
  std::string out = program.source_name + ": " + std::to_string(analysis.paths.size()) +
                    " privacy-sensitive dataflow(s)\n";
  for (size_t i = 0; i < analysis.paths.size(); ++i) {
    const DataflowPath& path = analysis.paths[i];
    out += "  #" + std::to_string(i + 1) + " " + path.source_description + " (line " +
           std::to_string(path.source_loc.line) + ") -> " + path.sink_description +
           " (line " + std::to_string(path.sink_loc.line) + ")\n";
  }
  std::vector<std::string> lines = StrSplit(source, '\n');
  for (size_t i = 0; i < lines.size(); ++i) {
    int line_number = static_cast<int>(i) + 1;
    char marker = ' ';
    auto it = roles.find(line_number);
    if (it != roles.end()) {
      marker = it->second == LineRole::kSource ? 'S'
               : it->second == LineRole::kSink ? '!'
                                               : '*';
    }
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%c %4d | ", marker, line_number);
    out += buffer + lines[i] + "\n";
  }
  obs::Metrics::Global()
      .GetHistogram("analysis.report_seconds")
      ->Observe(report_watch.ElapsedSeconds());
  return out;
}

std::string ExplainViolation(const Violation& violation) {
  char header[160];
  std::snprintf(header, sizeof(header), "violation at t=%.3f: %s -> %s\n",
                violation.time, violation.data_labels.c_str(),
                violation.sink.c_str());
  std::string out = header;
  if (!violation.origin_node.empty()) {
    out += "  message injected at flow node '" + violation.origin_node + "'";
    if (violation.trace_id != 0) {
      out += " (trace #" + std::to_string(violation.trace_id) + ")";
    }
    out += "\n";
  } else if (violation.trace_id != 0) {
    out += "  trace #" + std::to_string(violation.trace_id) + "\n";
  }
  if (violation.provenance.empty()) {
    out += "  (no provenance recorded — enable DiftTracker provenance and/or "
           "the obs event log)\n";
    return out;
  }
  out += "  provenance chain:\n";
  for (size_t i = 0; i < violation.provenance.size(); ++i) {
    char index[16];
    std::snprintf(index, sizeof(index), "  %3zu. ", i + 1);
    out += index + violation.provenance[i].ToString() + "\n";
  }
  return out;
}

}  // namespace turnstile
