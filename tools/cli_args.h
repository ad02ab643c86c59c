// Shared strict argv parsing for the CLI tools (profile_app, audit_query,
// bench mains). Every tool historically hand-rolled the same whole-string
// strtol contract and error wording; this header is that contract, factored
// once. The wording is load-bearing: the CLI contract tests in
// tools/CMakeLists.txt grep stderr for these exact messages.
#ifndef TURNSTILE_TOOLS_CLI_ARGS_H_
#define TURNSTILE_TOOLS_CLI_ARGS_H_

#include <string>

namespace turnstile {
namespace cli {

// Three-way result of matching one argv token against one flag: the token is
// for a different flag entirely (kNoMatch — keep walking the else-if chain),
// parsed fine (kOk), or matched the flag but failed validation (kBad — the
// parser already printed the diagnostic; the caller exits 2).
enum class FlagParse { kNoMatch, kOk, kBad };

// Strict integer flag: matches "<flag>=N" (e.g. flag = "--messages").
// The value must be a whole-string decimal integer in [min, max] — an empty
// value, trailing garbage ("--messages=12abc"), or a value below `min` or
// above `max` is rejected with
//   "<tool>: bad <flag> value '<full-arg>'"
// on stderr (the historical wording, full token included).
FlagParse ParseIntFlag(const std::string& arg, const char* flag, const char* tool, long min,
                       long max, int* out);

// String flag: matches "<flag>=V". When `what` is non-null an empty value is
// rejected with "<tool>: <flag> needs a <what>" on stderr; when null, empty
// values are accepted verbatim.
FlagParse ParseStringFlag(const std::string& arg, const char* flag, const char* tool,
                          const char* what, std::string* out);

// Repeated-flag detection. Every Parse*Flag above notes each successful flag
// match; a flag seen a second time in one process warns once on stderr —
//   "<tool>: <flag> repeated; last value wins"
// — making the historical (and kept) last-wins behavior visible instead of
// silent. Subsequent repeats of the same flag stay quiet.
void NoteFlagMatchForRepeatWarning(const char* tool, const char* flag);
// Clears the per-process repeat bookkeeping (tests parse many argvs).
void ResetRepeatedFlagWarningsForTest();

}  // namespace cli
}  // namespace turnstile

#endif  // TURNSTILE_TOOLS_CLI_ARGS_H_
