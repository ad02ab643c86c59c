#include "src/support/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace turnstile {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> StrSplitTrimmed(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (const std::string& piece : StrSplit(text, sep)) {
    std::string_view trimmed = StrTrim(piece);
    if (!trimmed.empty()) {
      out.emplace_back(trimmed);
    }
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string_view StrTrim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string StrReplaceAll(std::string_view text, std::string_view from, std::string_view to) {
  if (from.empty()) {
    return std::string(text);
  }
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      return out;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string NumberToString(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0 ? "Infinity" : "-Infinity";
  }
  double integral = 0.0;
  if (std::modf(value, &integral) == 0.0 && std::fabs(value) < 1e15) {
    // Exactly representable in int64, so to_chars prints what "%.0f" would,
    // at a fraction of the cost; only -0 needs its sign spelled out.
    if (value == 0.0 && std::signbit(value)) {
      return "-0";
    }
    char buf[24];
    char* end = std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(value)).ptr;
    return std::string(buf, end);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string StrRepeat(std::string_view unit, size_t count) {
  std::string out;
  out.reserve(unit.size() * count);
  for (size_t i = 0; i < count; ++i) {
    out.append(unit);
  }
  return out;
}

}  // namespace turnstile
