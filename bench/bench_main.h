// Drop-in replacement for BENCHMARK_MAIN() that honours the repo-wide bench
// contract: `--json[=PATH]` on the command line dumps a metrics-registry
// snapshot after the run. All of
// the flag plumbing lives in bench_snapshot.h, shared with the table/figure
// bench mains.
#ifndef TURNSTILE_BENCH_BENCH_MAIN_H_
#define TURNSTILE_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include "bench/bench_snapshot.h"

namespace turnstile {

inline int BenchmarkMainWithMetricsSnapshot(int argc, char** argv) {
  // Keep the snapshot flags away from google-benchmark's argv parsing; the
  // filtered-out ones are replayed to the snapshot writer afterwards.
  BenchArgs args = SplitSnapshotArgs(argc, argv);
  int bench_argc = static_cast<int>(args.bench.size());
  benchmark::Initialize(&bench_argc, args.bench.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.bench.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  MaybeDumpMetricsSnapshot(static_cast<int>(args.snapshot.size()), args.snapshot.data());
  return 0;
}

}  // namespace turnstile

#define TURNSTILE_BENCHMARK_MAIN()                                  \
  int main(int argc, char** argv) {                                 \
    return turnstile::BenchmarkMainWithMetricsSnapshot(argc, argv); \
  }

#endif  // TURNSTILE_BENCH_BENCH_MAIN_H_
