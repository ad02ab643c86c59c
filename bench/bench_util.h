// Shared measurement helpers for the table/figure reproduction benches.
#ifndef TURNSTILE_BENCH_BENCH_UTIL_H_
#define TURNSTILE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_snapshot.h"
#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/flow/workload.h"
#include "src/obs/profiler.h"
#include "src/support/env.h"
#include "src/support/stopwatch.h"

namespace turnstile {

// Number of workload messages per run (default: the paper's E2 workload
// size); TURNSTILE_BENCH_MESSAGES overrides it for quick smoke runs. A
// malformed value warns once and keeps `fallback`.
inline int BenchMessageCount(int fallback = 1000) {
  return static_cast<int>(EnvInt("TURNSTILE_BENCH_MESSAGES", fallback, 1, 1000000));
}

// Measures per-message processing time (wall seconds) for one app version.
// Exits the process on setup/run failure — a bench must not silently skip.
inline std::vector<double> MeasureProcTimes(const CorpusApp& app, AppVersion version,
                                            int messages) {
  auto runtime = AppRuntime::Create(app, version);
  if (!runtime.ok()) {
    std::fprintf(stderr, "FATAL: %s setup failed: %s\n", app.name.c_str(),
                 runtime.status().ToString().c_str());
    std::exit(1);
  }
  Rng rng(0xBE11C0DE);
  // Warm-up: populate caches (compiled labellers, module objects).
  for (int seq = 0; seq < 20; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, seq);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: %s warm-up failed: %s\n", app.name.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  std::vector<double> proc;
  proc.reserve(static_cast<size_t>(messages));
  for (int seq = 0; seq < messages; ++seq) {
    Stopwatch watch;
    Status status = (*runtime)->DriveMessage(&rng, 100 + seq);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: %s message %d failed: %s\n", app.name.c_str(), seq,
                   status.ToString().c_str());
      std::exit(1);
    }
    proc.push_back(watch.ElapsedSeconds());
  }
  return proc;
}

// Per-app measurement set for the §6.2 experiments.
struct OverheadMeasurement {
  std::string app;
  std::vector<double> original;
  std::vector<double> selective;
  std::vector<double> exhaustive;
};

// Measures one app across all three versions with chunk-interleaved driving,
// so allocator/CPU-state drift affects every version equally instead of
// biasing whichever version ran last.
inline OverheadMeasurement MeasureInterleaved(const CorpusApp& app, int messages) {
  constexpr AppVersion kVersions[] = {AppVersion::kOriginal, AppVersion::kSelective,
                                      AppVersion::kExhaustive};
  OverheadMeasurement m;
  m.app = app.name;
  std::unique_ptr<AppRuntime> runtimes[3];
  Rng rngs[3] = {Rng(0xBE11C0DE), Rng(0xBE11C0DE), Rng(0xBE11C0DE)};
  for (int v = 0; v < 3; ++v) {
    auto runtime = AppRuntime::Create(app, kVersions[v]);
    if (!runtime.ok()) {
      std::fprintf(stderr, "FATAL: %s setup failed: %s\n", app.name.c_str(),
                   runtime.status().ToString().c_str());
      std::exit(1);
    }
    runtimes[v] = std::move(runtime).value();
    for (int seq = 0; seq < 20; ++seq) {  // warm-up
      if (!runtimes[v]->DriveMessage(&rngs[v], seq).ok()) {
        std::fprintf(stderr, "FATAL: %s warm-up failed\n", app.name.c_str());
        std::exit(1);
      }
    }
  }
  std::vector<double>* sinks[3] = {&m.original, &m.selective, &m.exhaustive};
  constexpr int kChunk = 25;
  for (int done = 0; done < messages; done += kChunk) {
    int chunk = std::min(kChunk, messages - done);
    for (int v = 0; v < 3; ++v) {
      for (int i = 0; i < chunk; ++i) {
        Stopwatch watch;
        Status status = runtimes[v]->DriveMessage(&rngs[v], 100 + done + i);
        if (!status.ok()) {
          std::fprintf(stderr, "FATAL: %s failed: %s\n", app.name.c_str(),
                       status.ToString().c_str());
          std::exit(1);
        }
        sinks[v]->push_back(watch.ElapsedSeconds());
      }
    }
  }
  return m;
}

// Measures all Part-2 apps (the 27 with ≥1 Turnstile-detected path,
// identified by bucket membership).
inline std::vector<OverheadMeasurement> MeasureAllOverheads(int messages) {
  std::vector<OverheadMeasurement> out;
  for (const CorpusApp& app : Corpus()) {
    if (app.bucket != CorpusBucket::kTurnstileOnly && app.bucket != CorpusBucket::kBothFind) {
      continue;
    }
    out.push_back(MeasureInterleaved(app, messages));
  }
  return out;
}

// Monitor-vs-app wall-time split for one app, measured by enabling the span
// profiler only around the driven messages. Prefers the selective version
// (the deployment configuration); apps whose analysis finds no paths or that
// carry no usable policy fall back to the original program, whose split is
// all-app by construction (fraction 0).
struct OverheadSplitMeasurement {
  std::string app;
  double app_seconds = 0.0;
  double monitor_seconds = 0.0;
  double fraction = 0.0;
  bool instrumented = false;  // false = fell back to the original version
};

inline OverheadSplitMeasurement MeasureOverheadSplit(const CorpusApp& app, int messages) {
  OverheadSplitMeasurement m;
  m.app = app.name;
  auto runtime = AppRuntime::Create(app, AppVersion::kSelective);
  if (runtime.ok()) {
    m.instrumented = true;
  } else {
    runtime = AppRuntime::Create(app, AppVersion::kOriginal);
    if (!runtime.ok()) {
      std::fprintf(stderr, "FATAL: %s setup failed: %s\n", app.name.c_str(),
                   runtime.status().ToString().c_str());
      std::exit(1);
    }
  }
  Rng rng(0xBE11C0DE);
  for (int seq = 0; seq < 20; ++seq) {  // warm-up outside the profiled window
    if (!(*runtime)->DriveMessage(&rng, seq).ok()) {
      std::fprintf(stderr, "FATAL: %s warm-up failed\n", app.name.c_str());
      std::exit(1);
    }
  }
  obs::Profiler& profiler = obs::Profiler::Global();
  profiler.Enable();
  for (int seq = 0; seq < messages; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, 100 + seq);
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: %s message %d failed: %s\n", app.name.c_str(), seq,
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  obs::OverheadSplit split = profiler.split();
  profiler.Disable();
  m.app_seconds = split.app_s;
  m.monitor_seconds = split.monitor_s;
  m.fraction = split.fraction();
  return m;
}

// Median of a (copied) vector.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  return (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace turnstile

#endif  // TURNSTILE_BENCH_BENCH_UTIL_H_
