// Strict environment-variable parsing shared by the observability config
// (the numeric forms of TURNSTILE_AUDIT and TURNSTILE_TELEMETRY) and the
// benches (TURNSTILE_BENCH_MESSAGES).
//
// The contract: a malformed value — trailing garbage ("8x"), a negative
// count, out-of-range — keeps the fallback but warns loudly ONCE per
// variable. A silently half-parsed TURNSTILE_BENCH_MESSAGES would run a whole
// bench on the wrong workload size and invalidate every number it reports.
#ifndef TURNSTILE_SRC_SUPPORT_ENV_H_
#define TURNSTILE_SRC_SUPPORT_ENV_H_

namespace turnstile {

// Reads integer environment variable `name`. Unset returns `fallback`
// silently. A strict parse (strtol over the whole value, result in
// [min, max]) returns the parsed value; anything else — empty value,
// trailing garbage, a value outside [min, max] — warns once per variable
// name and returns `fallback`.
long EnvInt(const char* name, long fallback, long min, long max);

// Re-arms the once-only warnings (tests only).
void ResetEnvWarningsForTest();

}  // namespace turnstile

#endif  // TURNSTILE_SRC_SUPPORT_ENV_H_
