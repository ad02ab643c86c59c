// The deploy workload: the cold path, with no message load. One thread runs
// a closed loop over seeded permutations of all 61 corpus apps; each step
// analyzes the app's package (app plus vendored dependency bundle, §6.1's
// input shape), then deploys the app with AppRuntime::Create(kRoundTrip) and
// delivers its first message. Its latency is the deployment's: Create to the
// first message delivered.
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "e2ebench/bench.h"
#include "src/support/stopwatch.h"

namespace turnstile::e2e {
namespace {

// Vendored-bundle size: several thousand AST nodes per package.
constexpr int kVendorChain = 400;

// Figure 10's expectation: the paths Turnstile's analyzer finds per app (56
// in total; apps not listed have none).
int ExpectedPaths(const std::string& app) {
  static const std::map<std::string, int> kPaths = {
      {"camera-motion", 2},   {"face-gate", 4},        {"sensor-logger", 1},
      {"mqtt-bridge", 2},     {"email-alert", 2},      {"telemetry-post", 2},
      {"dispatch-hub", 3},    {"closure-router", 2},   {"sqlite-history", 1},
      {"voice-intent", 2},    {"smart-meter", 2},      {"presence-tracker", 2},
      {"doorbell-notify", 2}, {"frame-archiver", 2},   {"geo-fence", 1},
      {"thermostat-sync", 2}, {"audio-level", 2},      {"baby-monitor", 3},
      {"parcel-scanner", 2},  {"nlp.js", 1},           {"amazon-echo", 2},
      {"dialogflow", 2},      {"modbus", 3},           {"watson", 3},
      {"rtsp-relay", 3},      {"legacy-gateway", 1},   {"file-sync", 2},
  };
  auto it = kPaths.find(app);
  return it == kPaths.end() ? 0 : it->second;
}

// Analyzes `app`'s package and checks the path count; returns the analysis
// when it ran.
Result<PackageAnalysis> CheckedAnalysis(const std::string& vendor, const CorpusApp& app,
                                        Report* report) {
  auto package = AnalyzePackage(vendor, app);
  report->Check(package.ok() && package->paths == ExpectedPaths(app.name),
                app.name + ": package analysis found " +
                    std::to_string(package.ok() ? package->paths : -1) + " paths, expected " +
                    std::to_string(ExpectedPaths(app.name)) + " " + package.status().ToString());
  return package;
}

}  // namespace

void RunDeploy(const RunConfig& config, Report* report) {
  const std::vector<CorpusApp>& corpus = Corpus();
  const uint64_t rng_seed = MessageSeed(config.seed);
  const std::string vendor = VendoredDependencyBundle(kVendorChain);

  // Set-up: the uninstrumented first-message outputs every deployment's
  // output is checked against.
  std::vector<Outcome> references(corpus.size());
  Samples setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Stopwatch watch;
    for (size_t i = 0; i < corpus.size(); ++i) {
      auto reference = DeployOnce(corpus[i], AppVersion::kOriginal, rng_seed, &references[i]);
      report->Check(reference.ok(),
                    corpus[i].name + ": original deploy: " + reference.status().ToString());
    }
    setup.Add(watch.ElapsedSeconds());
  }
  report->Set("setup_s", setup.Median());
  std::printf("deploy: %zu apps, kRoundTrip, vendored chain %d; setup (original references, "
              "%d times): %s\n",
              corpus.size(), kVendorChain, kSetupRepeats, setup.Describe(1.0, "s").c_str());

  // A pass deploys every app once in a seeded order. Latency quantiles and
  // throughput are the fast quartile over complete passes (see
  // QuartileOfBins); pooled quantiles are printed alongside.
  Rng order(config.seed);
  std::vector<size_t> permutation(corpus.size());
  std::iota(permutation.begin(), permutation.end(), 0);
  size_t cursor = permutation.size();
  std::vector<Samples> passes;
  Samples pass_rates;
  Samples deploy;
  Samples analyze;
  Samples parse;
  double nodes = 0.0;
  double rounds = 0.0;
  Stopwatch window;
  Stopwatch pass;
  while (window.ElapsedSeconds() < config.seconds) {
    if (cursor == permutation.size()) {
      if (!passes.empty()) {
        pass_rates.Add(static_cast<double>(corpus.size()) / pass.ElapsedSeconds());
      }
      Shuffle(&permutation, &order);
      cursor = 0;
      passes.emplace_back();
      pass.Reset();
    }
    const size_t index = permutation[cursor++];
    const CorpusApp& app = corpus[index];
    auto package = CheckedAnalysis(vendor, app, report);
    if (package.ok()) {
      analyze.Add(package->analyze_s);
      parse.Add(package->parse_s);
      nodes += package->graph_nodes;
      rounds += package->fixpoint_rounds;
    }
    Outcome outcome;
    auto timing = DeployOnce(app, AppVersion::kRoundTrip, rng_seed, &outcome);
    report->Check(timing.ok(), app.name + ": deploy: " + timing.status().ToString());
    if (timing.ok()) {
      deploy.Add(timing->create_s + timing->first_message_s);
      passes.back().Add(timing->create_s + timing->first_message_s);
      report->Check(outcome.io == references[index].io,
                    app.name + ": instrumented first message's io differs from the original's");
    }
  }
  if (cursor < permutation.size() && passes.size() > 1) {
    passes.pop_back();  // an incomplete pass would skew the mix
  }
  const double analyses = std::max<double>(1.0, static_cast<double>(analyze.size()));
  const double p50 = QuartileOfBins(&passes, 0.5, 0.25);
  const double p99 = QuartileOfBins(&passes, 0.99, 0.25);
  const double throughput = pass_rates.size() > 0 ? pass_rates.Quantile(0.75)
                                                  : static_cast<double>(deploy.size()) /
                                                        window.ElapsedSeconds();
  report->Set("latency_p50_ms", p50 * 1e3);
  report->Set("latency_p99_ms", p99 * 1e3);
  report->Set("throughput_msgs_per_s", throughput);
  report->Set("bench.latency_samples", static_cast<double>(deploy.size()));
  report->Set("analysis.pkg_analyze_ms", analyze.Median() * 1e3);
  report->Set("lang.pkg_parse_ms", parse.Median() * 1e3);
  report->Set("analysis.pkg_graph_nodes", nodes / analyses);
  report->Set("analysis.pkg_fixpoint_rounds", rounds / analyses);
  std::printf("deploy_p50_ms=%.4f deploy_p99_ms=%.4f (fast quartile of %zu passes) "
              "analyze_p50_ms=%.4f\n",
              p50 * 1e3, p99 * 1e3, passes.size(), analyze.Median() * 1e3);
  std::printf("deploy (Create + first message), pooled: %s\n", deploy.Describe(1e3, "ms").c_str());
  std::printf("package analysis, pooled: %s\n", analyze.Describe(1e3, "ms").c_str());
  std::printf("throughput: fast quartile %.2f packages analyzed and deployed per second over "
              "%zu passes, median %.2f\n",
              throughput, pass_rates.size(), pass_rates.Median());

  if (!config.trace) {
    return;
  }
  // Traced pass: every app once, Create's stages re-run one by one from here
  // (DecomposeSetup) next to the package analysis.
  std::vector<MixEntry> mix;
  for (const CorpusApp& app : corpus) {
    const double share = 1.0 / static_cast<double>(corpus.size());
    mix.push_back(MixEntry{&app, share, share});
  }
  Stopwatch traced;
  double package_s = 0.0;
  for (const CorpusApp& app : corpus) {
    auto package = CheckedAnalysis(vendor, app, report);
    if (package.ok()) {
      package_s += package->parse_s + package->analyze_s;
    }
  }
  const SetupLayers mean = ReportSetupLayers(mix, AppVersion::kRoundTrip, rng_seed, report);
  const double traced_step = traced.ElapsedSeconds() / static_cast<double>(corpus.size());
  const double accounted = package_s / static_cast<double>(corpus.size()) + mean.stages_s() +
                           mean.create_s + mean.generate_s + mean.inject_s;
  report->Set("flow.generate_us", mean.generate_s * 1e6);
  report->Set("corpus.inject_us", mean.inject_s * 1e6);
  report->Set("trace.unaccounted_ratio", (traced_step - accounted) / traced_step);
  report->Set("trace.overhead_ratio", traced_step * throughput);
}

}  // namespace turnstile::e2e
