// Shared `--json[=PATH]` metrics-snapshot plumbing for every bench binary.
// Both bench entry-point styles funnel through here: google-benchmark micros
// (bench_main.h) need argv split so the snapshot flags stay away from
// benchmark::Initialize, while the table/figure mains (bench_util.h) parse
// their own argv and just want the dump-at-exit behaviour.
#ifndef TURNSTILE_BENCH_BENCH_SNAPSHOT_H_
#define TURNSTILE_BENCH_BENCH_SNAPSHOT_H_

#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace turnstile {

// Is this argv entry one of ours (`--json` / `--json=PATH`) rather than a
// flag the bench framework should see?
inline bool IsSnapshotFlag(const char* arg) {
  std::string s = arg == nullptr ? "" : arg;
  return s == "--json" || s.rfind("--json=", 0) == 0;
}

// argv partitioned into snapshot flags and everything else; both halves keep
// argv[0] so they remain valid argument vectors on their own.
struct BenchArgs {
  std::vector<char*> bench;
  std::vector<char*> snapshot;
};

inline BenchArgs SplitSnapshotArgs(int argc, char** argv) {
  BenchArgs out;
  out.bench.push_back(argv[0]);
  out.snapshot.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    (IsSnapshotFlag(argv[i]) ? out.snapshot : out.bench).push_back(argv[i]);
  }
  return out;
}

// Dumps the global metrics registry as pretty JSON when requested via
// `--json[=PATH]` on the command line (`--json` = stdout, `--json=PATH` = a
// pure-JSON file, keeping stdout free for figure output). Call at the end of
// main(), after the bench has run.
inline bool MaybeDumpMetricsSnapshot(int argc, char** argv) {
  return obs::MaybeWriteMetricsSnapshot(argc, argv);
}

}  // namespace turnstile

#endif  // TURNSTILE_BENCH_BENCH_SNAPSHOT_H_
