#include "tools/cli_args.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace turnstile {
namespace cli {

namespace {

// flag -> occurrences seen so far (CLI parsing is single-threaded; tools
// parse argv once from main).
std::map<std::string, int>& RepeatCounts() {
  static std::map<std::string, int>* counts = new std::map<std::string, int>();
  return *counts;
}

}  // namespace

void NoteFlagMatchForRepeatWarning(const char* tool, const char* flag) {
  int seen = ++RepeatCounts()[flag];
  if (seen == 2) {
    std::fprintf(stderr, "%s: %s repeated; last value wins\n", tool, flag);
  }
}

void ResetRepeatedFlagWarningsForTest() { RepeatCounts().clear(); }

namespace {
// Returns the value part of "<flag>=V", or nullptr when arg is for a
// different flag. The '=' is required: a bare "--messages" is not a match
// (the caller's unknown-argument branch reports it).
const char* FlagValue(const std::string& arg, const char* flag) {
  size_t flag_len = std::strlen(flag);
  if (arg.compare(0, flag_len, flag) != 0 || arg.size() < flag_len + 1 ||
      arg[flag_len] != '=') {
    return nullptr;
  }
  return arg.c_str() + flag_len + 1;
}
}  // namespace

FlagParse ParseIntFlag(const std::string& arg, const char* flag, const char* tool, long min,
                       long max, int* out) {
  const char* value = FlagValue(arg, flag);
  if (value == nullptr) {
    return FlagParse::kNoMatch;
  }
  NoteFlagMatchForRepeatWarning(tool, flag);
  // Strict parse: "--messages=12abc" must be rejected, not read as 12.
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < min || parsed > max) {
    std::fprintf(stderr, "%s: bad %s value '%s'\n", tool, flag, arg.c_str());
    return FlagParse::kBad;
  }
  *out = static_cast<int>(parsed);
  return FlagParse::kOk;
}

FlagParse ParseStringFlag(const std::string& arg, const char* flag, const char* tool,
                          const char* what, std::string* out) {
  const char* value = FlagValue(arg, flag);
  if (value == nullptr) {
    return FlagParse::kNoMatch;
  }
  NoteFlagMatchForRepeatWarning(tool, flag);
  if (what != nullptr && *value == '\0') {
    std::fprintf(stderr, "%s: %s needs a %s\n", tool, flag, what);
    return FlagParse::kBad;
  }
  *out = value;
  return FlagParse::kOk;
}

}  // namespace cli
}  // namespace turnstile
