// Reproduces Figure 11: relative run-time of the 27 privacy-managed
// applications over input rates from 2 Hz to 1000 Hz — minimum, median and
// maximum across apps, for selective and exhaustive instrumentation.
//
// Per-message processing cost is *measured* on the real interpreter; the
// end-to-end stream time at each rate follows the §6.2 streaming model (see
// src/flow/workload.h and DESIGN.md §1).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace turnstile {
namespace {

const double kRates[] = {2, 10, 30, 100, 250, 500, 1000};

int Main() {
  int messages = BenchMessageCount();
  std::printf("Figure 11: relative run-time vs input rate (%d messages per run, %zu apps)\n\n",
              messages, static_cast<size_t>(27));
  std::vector<OverheadMeasurement> measurements = MeasureAllOverheads(messages);
  if (measurements.size() != 27) {
    std::fprintf(stderr, "FATAL: expected 27 Part-2 apps, found %zu\n", measurements.size());
    return 1;
  }

  std::printf("%8s | %28s | %28s\n", "", "selective t/t_og", "exhaustive t/t_og");
  std::printf("%8s | %8s %9s %9s | %8s %9s %9s\n", "rate/Hz", "min", "median", "max", "min",
              "median", "max");
  std::printf("---------+------------------------------+------------------------------\n");

  for (double rate : kRates) {
    std::vector<double> selective_rel;
    std::vector<double> exhaustive_rel;
    for (const OverheadMeasurement& m : measurements) {
      selective_rel.push_back(RelativeRuntime(m.selective, m.original, rate));
      exhaustive_rel.push_back(RelativeRuntime(m.exhaustive, m.original, rate));
    }
    auto min_of = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    auto max_of = [](const std::vector<double>& v) {
      return *std::max_element(v.begin(), v.end());
    };
    std::printf("%8.0f | %8.4f %9.4f %9.4f | %8.4f %9.4f %9.4f\n", rate,
                min_of(selective_rel), Median(selective_rel), max_of(selective_rel),
                min_of(exhaustive_rel), Median(exhaustive_rel), max_of(exhaustive_rel));
  }

  // The paper's headline summary numbers.
  auto rel_at = [&](const OverheadMeasurement& m, bool selective, double rate) {
    return RelativeRuntime(selective ? m.selective : m.exhaustive, m.original, rate);
  };
  std::vector<double> sel30;
  std::vector<double> exh30;
  std::vector<double> sel1000;
  std::vector<double> exh1000;
  double sel30_max = 0;
  double exh30_max = 0;
  for (const OverheadMeasurement& m : measurements) {
    sel30.push_back(rel_at(m, true, 30));
    exh30.push_back(rel_at(m, false, 30));
    sel1000.push_back(rel_at(m, true, 1000));
    exh1000.push_back(rel_at(m, false, 1000));
    sel30_max = std::max(sel30_max, sel30.back());
    exh30_max = std::max(exh30_max, exh30.back());
  }
  int acceptable_sel = 0;
  int acceptable_exh = 0;
  for (const OverheadMeasurement& m : measurements) {
    // "Acceptable" = median overhead below 20% across the rate range (§6.2).
    std::vector<double> sel_rels;
    std::vector<double> exh_rels;
    for (double rate : kRates) {
      sel_rels.push_back(rel_at(m, true, rate));
      exh_rels.push_back(rel_at(m, false, rate));
    }
    acceptable_sel += Median(sel_rels) < 1.20;
    acceptable_exh += Median(exh_rels) < 1.20;
  }

  std::printf("\nHeadline numbers (paper values in brackets):\n");
  std::printf("  worst-case overhead at 30 Hz:   exhaustive %.1f%% [153.8%%] -> selective "
              "%.1f%% [15.8%%]\n",
              100 * (exh30_max - 1), 100 * (sel30_max - 1));
  std::printf("  median overhead at 30 Hz:       selective %.1f%% [2.2%%], exhaustive %.1f%% "
              "[2.7%%]\n",
              100 * (Median(sel30) - 1), 100 * (Median(exh30) - 1));
  std::printf("  median overhead at 1000 Hz:     selective %.1f%% [22.0%%], exhaustive %.1f%% "
              "[26.8%%]\n",
              100 * (Median(sel1000) - 1), 100 * (Median(exh1000) - 1));
  std::printf("  apps with acceptable (<20%%) median overhead: selective %d [22/27], "
              "exhaustive %d [16/27]\n",
              acceptable_sel, acceptable_exh);

  // Attribution pass: monitor-vs-app wall-time split per app, over the whole
  // 61-app corpus (not just the 27 Part-2 apps) — this is where the end-to-end
  // deltas above actually live. Split runs are capped so the full-corpus scan
  // stays a fraction of the interleaved measurement above.
  int split_messages = std::min(messages, 200);
  std::printf("\nDIFT overhead attribution (monitor vs app wall time, %d messages per app):\n",
              split_messages);
  std::printf("%-22s | %10s %10s | %9s\n", "application", "app ms", "monitor ms", "fraction");
  std::printf("-----------------------+-----------------------+----------\n");
  obs::Metrics& metrics = obs::Metrics::Global();
  std::vector<double> fractions;
  double app_total = 0.0;
  double monitor_total = 0.0;
  for (const CorpusApp& app : Corpus()) {
    OverheadSplitMeasurement split = MeasureOverheadSplit(app, split_messages);
    metrics.GetFloatGauge(obs::MetricWithLabel("dift.overhead_fraction", "app", app.name))
        ->Set(split.fraction);
    fractions.push_back(split.fraction);
    app_total += split.app_seconds;
    monitor_total += split.monitor_seconds;
    std::printf("%-22s | %10.2f %10.2f | %8.4f%s\n", split.app.c_str(),
                split.app_seconds * 1e3, split.monitor_seconds * 1e3, split.fraction,
                split.instrumented ? "" : "  (original)");
  }
  double aggregate =
      app_total + monitor_total > 0 ? monitor_total / (app_total + monitor_total) : 0.0;
  metrics.GetFloatGauge("dift.overhead_fraction")->Set(aggregate);
  // The attribution pass runs under the DIFT-fused bytecode VM; publish that
  // explicitly so overhead comparisons (CI perf smoke) can key on the tier.
  metrics.GetFloatGauge(obs::MetricWithLabel("dift.overhead_fraction", "tier", "fused"))
      ->Set(aggregate);
  std::printf("\n  corpus aggregate: monitor %.1f ms / total %.1f ms -> fraction %.4f "
              "(median per app %.4f)\n",
              monitor_total * 1e3, (app_total + monitor_total) * 1e3, aggregate,
              Median(fractions));
  return 0;
}

}  // namespace
}  // namespace turnstile

int main(int argc, char** argv) {
  int rc = turnstile::Main();
  turnstile::MaybeDumpMetricsSnapshot(argc, argv);
  return rc;
}
