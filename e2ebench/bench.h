// Shared pieces of the end-to-end benchmark. METRICS.md says what every
// metric means on every workload and which end-to-end metric each layer
// metric should move.
#ifndef TURNSTILE_E2EBENCH_BENCH_H_
#define TURNSTILE_E2EBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace turnstile::e2e {

// Pinned here so that no TURNSTILE_* variable changes what is timed.
inline constexpr ExecTier kTier = ExecTier::kBytecode;
inline constexpr int kShards = 2;
inline constexpr size_t kMailboxCapacity = 1024;
// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

// The workload rng seed every instance (and every reference replay) uses,
// derived from the benchmark seed.
uint64_t MessageSeed(uint64_t seed);

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

// Raw samples held by the benchmark. Every quantile it reports comes from
// here (nearest rank), never from obs::Histogram, whose buckets clamp at 1 s.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q);
  double Median() { return Quantile(0.5); }
  // "n=... p50=... p99=..." plus the highest percentile with ten samples
  // beyond it, values multiplied by `scale`.
  std::string Describe(double scale, const char* unit);

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// The `across`-quantile over bins of each bin's q-quantile (empty bins
// skipped). The end-to-end metrics take the fast quartile across the bins of
// a run (across = 0.25 for times; rates take their 0.75 quantile): on shared
// machines other tenants slow a run down in seconds-long spells, never speed
// it up, and the fast quartile holds while spells cover up to three quarters
// of a run.
double QuartileOfBins(std::vector<Samples>* bins, double q, double across);

// What one run measured: metric values by name (main.cc owns the names and
// units) and the tally of attempted and failed operations.
struct Report {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value) { values[name] = value; }
  // Counts one operation (a setup, a delivery, an output check); a failure is
  // counted and its description printed to stderr.
  void Check(bool ok, const std::string& what);
  // Counts `operations` operations of which each entry of `failures` failed.
  void Tally(uint64_t operations, const std::vector<std::string>& failures);
};

// The workloads. Each sets every end-to-end metric except peak_rss_mb, and
// the per-layer metrics when config.trace is set.
void RunStream(const RunConfig& config, Report* report);
void RunChatter(const RunConfig& config, Report* report);
void RunDeploy(const RunConfig& config, Report* report);

double PeakRssMb();

// --- single-threaded replays (replay.cc) -------------------------------------

// The observable record of one instance: io records and violations, rendered
// as the fleet differential test renders them.
struct Outcome {
  std::string io;
  std::string violations;
};
Outcome Collect(AppRuntime& runtime);

// Creates `app` on a fresh isolated context and drives workload messages
// 0..messages-1 from Rng(rng_seed): the reference that a fleet tenant fed the
// same sequence must match byte for byte.
Result<Outcome> ReferenceRun(const CorpusApp& app, AppVersion version, uint64_t rng_seed,
                             int messages);

// One cold deployment: Create on a fresh isolated context, then the first
// workload message. `outcome` (optional) receives what the message produced.
struct DeployTiming {
  double create_s = 0.0;
  double first_message_s = 0.0;
};
Result<DeployTiming> DeployOnce(const CorpusApp& app, AppVersion version, uint64_t rng_seed,
                                Outcome* outcome);

// Package-scale analysis: the app bundled with vendored dependency code, the
// input shape of §6.1.
struct PackageAnalysis {
  double parse_s = 0.0;
  double analyze_s = 0.0;
  int paths = 0;
  int graph_nodes = 0;
  int fixpoint_rounds = 0;
};
Result<PackageAnalysis> AnalyzePackage(const std::string& vendor, const CorpusApp& app);

// Terminal sends (flow outputs) of the first `messages` workload messages,
// serialized as the fleet wire serializes them.
Result<std::vector<Json>> CaptureTerminalSends(const CorpusApp& app, AppVersion version,
                                               uint64_t rng_seed, int messages);
// True when a fresh instance of `app` takes every payload without an error.
bool AcceptsPayloads(const CorpusApp& app, AppVersion version, const std::vector<Json>& payloads);

// One app of a workload mix and its shares of the workload's tenants and
// messages (each set of weights sums to 1 over the mix).
struct MixEntry {
  const CorpusApp* app = nullptr;
  double tenant_weight = 0.0;
  double message_weight = 0.0;
};

// The per-message layer account of a mix: for each app an untraced and a
// span-profiled replay (and, with `with_original`, an uninstrumented one for
// dift.overhead_ratio), timed around each call into a layer's public API.
// Sets the flow, corpus, interp, vm, dift, wire and trace.* metrics.
void ReportReplayLayers(const std::vector<MixEntry>& mix, AppVersion version, uint64_t rng_seed,
                        int messages, bool with_original, Report* report);

// The set-up path of AppRuntime::Create re-run stage by stage from here,
// followed by the real Create and the first message.
struct SetupLayers {
  double parse_s = 0.0;
  double resolve_s = 0.0;
  double print_s = 0.0;
  double policy_s = 0.0;
  double analyze_s = 0.0;
  double instrument_s = 0.0;
  double create_s = 0.0;
  double generate_s = 0.0;  // first message
  double inject_s = 0.0;    // first message
  double graph_nodes = 0.0;
  double calls_injected = 0.0;
  double chunks_compiled = 0.0;  // Create plus the first message
  double stages_s() const {
    return parse_s + resolve_s + print_s + policy_s + analyze_s + instrument_s;
  }
  double load_s() const { return std::max(0.0, create_s - stages_s()); }
};
Result<SetupLayers> DecomposeSetup(const CorpusApp& app, AppVersion version, uint64_t rng_seed);

// Weighted (by tenant share) set-up layers of a mix; sets the lang, ifc,
// analysis, instrument, vm.chunks_compiled and corpus.load_ms metrics and
// returns the weighted mean.
SetupLayers ReportSetupLayers(const std::vector<MixEntry>& mix, AppVersion version,
                              uint64_t rng_seed, Report* report);

}  // namespace turnstile::e2e

#endif  // TURNSTILE_E2EBENCH_BENCH_H_
