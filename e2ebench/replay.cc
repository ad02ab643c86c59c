// Single-threaded replays of corpus apps, timed from here around each call
// into a layer's public API: the references behind the output checks, cold
// deployments, package analysis, and the per-layer accounts.
#include <cstdio>
#include <sstream>
#include <utility>

#include "e2ebench/bench.h"
#include "src/analysis/analyzer.h"
#include "src/flow/workload.h"
#include "src/ifc/policy.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/lang/resolve.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/runtime/context.h"
#include "src/runtime/fleet.h"
#include "src/support/stopwatch.h"

namespace turnstile::e2e {

namespace {

constexpr int kWarmupMessages = 3;

// Per-message totals of one replay. Profiler fields stay 0 unless the replay
// ran with the span profiler on.
struct LayerTotals {
  double messages = 0;
  double generate_s = 0;     // GenerateMessage
  double inject_s = 0;       // AppRuntime::InjectValue
  double serialize_s = 0;    // FleetSerializeMessage on captured terminal sends
  double materialize_s = 0;  // FleetMaterializeMessage of the same
  double wire_hops = 0;      // captured terminal sends
  double app_s = 0;          // profiler: app account (VM dispatch + builtins)
  double monitor_s = 0;      // profiler: DIFT monitor account
  double builtins_s = 0;     // profiler: self time of non-monitor natives
  double json_parse_s = 0;   // profiler: self time of JSON.parse
  double vm_ops = 0;
  double routed = 0;
  double label_calls = 0;
  double binary_ops = 0;
  double checks = 0;
  double invokes = 0;
  double boxes = 0;

  double wall_s() const { return generate_s + inject_s + serialize_s + materialize_s; }

  // Adds `weight` times the per-message values of `other`.
  void Accumulate(const LayerTotals& o, double weight) {
    const double w = o.messages > 0 ? weight / o.messages : 0.0;
    messages += weight;
    generate_s += w * o.generate_s;
    inject_s += w * o.inject_s;
    serialize_s += w * o.serialize_s;
    materialize_s += w * o.materialize_s;
    wire_hops += w * o.wire_hops;
    app_s += w * o.app_s;
    monitor_s += w * o.monitor_s;
    builtins_s += w * o.builtins_s;
    json_parse_s += w * o.json_parse_s;
    vm_ops += w * o.vm_ops;
    routed += w * o.routed;
    label_calls += w * o.label_calls;
    binary_ops += w * o.binary_ops;
    checks += w * o.checks;
    invokes += w * o.invokes;
    boxes += w * o.boxes;
  }
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

Result<LayerTotals> LayeredReplay(const CorpusApp& app, AppVersion version, uint64_t rng_seed,
                                  int messages, bool profile) {
  auto context = RuntimeContext::CreateIsolated();
  TURNSTILE_ASSIGN_OR_RETURN(runtime, AppRuntime::Create(app, version, kTier, context.get()));
  TURNSTILE_ASSIGN_OR_RETURN(message_template, Json::Parse(app.message_template));
  std::vector<Value> sent;  // terminal sends of the message being driven
  runtime->engine().set_terminal_sink(
      [&sent](const std::string&, const Value& msg, uint64_t) { sent.push_back(msg); });
  Rng rng(rng_seed);
  for (int seq = 0; seq < kWarmupMessages; ++seq) {
    TURNSTILE_RETURN_IF_ERROR(runtime->DriveMessage(&rng, seq));
  }
  sent.clear();

  LayerTotals t;
  obs::Counter* ops = context->metrics().GetCounter("vm.ops_executed");
  const uint64_t ops_before = ops->value();
  const int routed_before = runtime->engine().messages_routed();
  const TrackerStats stats_before =
      runtime->tracker() != nullptr ? runtime->tracker()->stats() : TrackerStats{};
  obs::Profiler& profiler = context->profiler();
  if (profile) {
    profiler.Enable();
  }
  for (int i = 0; i < messages; ++i) {
    Stopwatch generate;
    Value msg = GenerateMessage(message_template, &rng, kWarmupMessages + i);
    t.generate_s += generate.ElapsedSeconds();
    Stopwatch inject;
    Status status = runtime->InjectValue(std::move(msg));
    t.inject_s += inject.ElapsedSeconds();
    TURNSTILE_RETURN_IF_ERROR(status);
    for (const Value& out : sent) {
      Stopwatch serialize;
      Json wire = FleetSerializeMessage(out);
      t.serialize_s += serialize.ElapsedSeconds();
      Stopwatch materialize;
      Value delivered = FleetMaterializeMessage(wire);
      t.materialize_s += materialize.ElapsedSeconds();
      t.wire_hops += 1;
    }
    sent.clear();
  }
  if (profile) {
    const obs::OverheadSplit split = profiler.split();
    t.app_s = split.app_s;
    t.monitor_s = split.monitor_s;
    for (const obs::FunctionProfile& fn : profiler.FunctionsSnapshot()) {
      if (fn.line == 0 && !fn.monitor) {
        t.builtins_s += fn.self_s;
      }
      if (fn.name == "JSON.parse") {
        t.json_parse_s += fn.self_s;
      }
    }
    profiler.Disable();
  }
  t.messages = messages;
  t.vm_ops = static_cast<double>(ops->value() - ops_before);
  t.routed = runtime->engine().messages_routed() - routed_before;
  if (runtime->tracker() != nullptr) {
    const TrackerStats& s = runtime->tracker()->stats();
    t.label_calls = static_cast<double>(s.label_calls - stats_before.label_calls);
    t.binary_ops = static_cast<double>(s.binary_ops - stats_before.binary_ops);
    t.checks = static_cast<double>(s.checks - stats_before.checks);
    t.invokes = static_cast<double>(s.invokes - stats_before.invokes);
    t.boxes = static_cast<double>(s.boxes_created - stats_before.boxes_created);
  }
  return t;
}

}  // namespace

Outcome Collect(AppRuntime& runtime) {
  Outcome out;
  std::ostringstream io;
  for (const IoRecord& record : runtime.interp().io_world().records) {
    io << record.channel << "|" << record.op << "|" << record.detail << "|" << record.payload
       << "\n";
  }
  out.io = io.str();
  if (runtime.tracker() != nullptr) {
    std::ostringstream violations;
    for (const Violation& v : runtime.tracker()->violations()) {
      violations << v.sink << " " << v.data_labels << " -> " << v.receiver_labels << "\n";
    }
    out.violations = violations.str();
  }
  return out;
}

Result<Outcome> ReferenceRun(const CorpusApp& app, AppVersion version, uint64_t rng_seed,
                             int messages) {
  auto context = RuntimeContext::CreateIsolated();
  TURNSTILE_ASSIGN_OR_RETURN(runtime, AppRuntime::Create(app, version, kTier, context.get()));
  Rng rng(rng_seed);
  for (int seq = 0; seq < messages; ++seq) {
    TURNSTILE_RETURN_IF_ERROR(runtime->DriveMessage(&rng, seq));
  }
  return Collect(*runtime);
}

Result<DeployTiming> DeployOnce(const CorpusApp& app, AppVersion version, uint64_t rng_seed,
                                Outcome* outcome) {
  auto context = RuntimeContext::CreateIsolated();
  DeployTiming timing;
  Stopwatch create;
  TURNSTILE_ASSIGN_OR_RETURN(runtime, AppRuntime::Create(app, version, kTier, context.get()));
  timing.create_s = create.ElapsedSeconds();
  Rng rng(rng_seed);
  Stopwatch first;
  TURNSTILE_RETURN_IF_ERROR(runtime->DriveMessage(&rng, 0));
  timing.first_message_s = first.ElapsedSeconds();
  if (outcome != nullptr) {
    *outcome = Collect(*runtime);
  }
  return timing;
}

Result<PackageAnalysis> AnalyzePackage(const std::string& vendor, const CorpusApp& app) {
  PackageAnalysis out;
  Stopwatch parse;
  TURNSTILE_ASSIGN_OR_RETURN(program, ParseProgram(vendor + app.source, app.name + ".js"));
  out.parse_s = parse.ElapsedSeconds();
  Stopwatch analyze;
  TURNSTILE_ASSIGN_OR_RETURN(result, AnalyzeProgram(program));
  out.analyze_s = analyze.ElapsedSeconds();
  out.paths = static_cast<int>(result.paths.size());
  out.graph_nodes = result.stats.graph_nodes;
  out.fixpoint_rounds = result.stats.fixpoint_rounds;
  return out;
}

Result<std::vector<Json>> CaptureTerminalSends(const CorpusApp& app, AppVersion version,
                                               uint64_t rng_seed, int messages) {
  auto context = RuntimeContext::CreateIsolated();
  TURNSTILE_ASSIGN_OR_RETURN(runtime, AppRuntime::Create(app, version, kTier, context.get()));
  std::vector<Json> captured;
  runtime->engine().set_terminal_sink([&captured](const std::string&, const Value& msg, uint64_t) {
    captured.push_back(FleetSerializeMessage(msg));
  });
  Rng rng(rng_seed);
  for (int seq = 0; seq < messages; ++seq) {
    TURNSTILE_RETURN_IF_ERROR(runtime->DriveMessage(&rng, seq));
  }
  return captured;
}

bool AcceptsPayloads(const CorpusApp& app, AppVersion version, const std::vector<Json>& payloads) {
  auto context = RuntimeContext::CreateIsolated();
  auto runtime = AppRuntime::Create(app, version, kTier, context.get());
  if (!runtime.ok()) {
    return false;
  }
  for (const Json& payload : payloads) {
    if (!(*runtime)->InjectValue(FleetMaterializeMessage(payload)).ok()) {
      return false;
    }
  }
  return true;
}

void ReportReplayLayers(const std::vector<MixEntry>& mix, AppVersion version, uint64_t rng_seed,
                        int messages, bool with_original, Report* report) {
  LayerTotals untraced;
  LayerTotals traced;
  LayerTotals original;
  for (const MixEntry& entry : mix) {
    const CorpusApp& app = *entry.app;
    auto plain = LayeredReplay(app, version, rng_seed, messages, /*profile=*/false);
    auto profiled = LayeredReplay(app, version, rng_seed, messages, /*profile=*/true);
    report->Check(plain.ok() && profiled.ok(), app.name + ": layered replay: " +
                                                   plain.status().ToString() + " " +
                                                   profiled.status().ToString());
    if (!plain.ok() || !profiled.ok()) {
      continue;
    }
    untraced.Accumulate(*plain, entry.message_weight);
    traced.Accumulate(*profiled, entry.message_weight);
    if (with_original) {
      auto baseline = LayeredReplay(app, AppVersion::kOriginal, rng_seed, messages, false);
      report->Check(baseline.ok(), app.name + ": original replay: " + baseline.status().ToString());
      if (baseline.ok()) {
        original.Accumulate(*baseline, entry.message_weight);
      }
    }
  }
  // Everything below is per message of the mix (weights sum to 1).
  report->Set("flow.generate_us", untraced.generate_s * 1e6);
  report->Set("flow.messages_routed", untraced.routed);
  report->Set("corpus.inject_us", untraced.inject_s * 1e6);
  report->Set("runtime.wire_serialize_us", Ratio(untraced.serialize_s, untraced.wire_hops) * 1e6);
  report->Set("runtime.wire_materialize_us",
              Ratio(untraced.materialize_s, untraced.wire_hops) * 1e6);
  report->Set("interp.json_parse_ms", traced.json_parse_s * 1e3);
  report->Set("interp.builtins_ms", traced.builtins_s * 1e3);
  report->Set("vm.app_ms", std::max(0.0, traced.app_s - traced.builtins_s) * 1e3);
  report->Set("vm.ops_executed", untraced.vm_ops);
  report->Set("dift.monitor_ms", traced.monitor_s * 1e3);
  report->Set("dift.monitor_share", Ratio(traced.monitor_s, traced.monitor_s + traced.app_s));
  report->Set("dift.label_calls", untraced.label_calls);
  report->Set("dift.binary_ops", untraced.binary_ops);
  report->Set("dift.checks", untraced.checks);
  report->Set("dift.invokes", untraced.invokes);
  report->Set("dift.boxes_created", untraced.boxes);
  if (with_original) {
    report->Set("dift.overhead_ratio", Ratio(untraced.wall_s(), original.wall_s()));
  }
  // The traced replay's wall split into the layers timed or profiled inside
  // it; the rest is flow-engine plumbing and profiler bookkeeping.
  const double accounted = traced.generate_s + traced.serialize_s + traced.materialize_s +
                           traced.app_s + traced.monitor_s;
  report->Set("trace.unaccounted_ratio", Ratio(traced.wall_s() - accounted, traced.wall_s()));
  report->Set("trace.overhead_ratio", Ratio(traced.wall_s(), untraced.wall_s()));
  std::printf("layers: %zu apps x %d messages replayed; per message: inject %.1f us, "
              "JSON.parse %.3f ms, builtins %.3f ms, monitor %.3f ms (share %.3f), "
              "%.2f wire hops\n",
              mix.size(), messages, untraced.inject_s * 1e6, traced.json_parse_s * 1e3,
              traced.builtins_s * 1e3, traced.monitor_s * 1e3,
              Ratio(traced.monitor_s, traced.monitor_s + traced.app_s), untraced.wire_hops);
}

Result<SetupLayers> DecomposeSetup(const CorpusApp& app, AppVersion version, uint64_t rng_seed) {
  SetupLayers s;
  Stopwatch watch;
  TURNSTILE_ASSIGN_OR_RETURN(program, ParseProgram(app.source, app.name + ".js"));
  s.parse_s = watch.ElapsedSeconds();
  if (version != AppVersion::kOriginal) {
    watch.Reset();
    TURNSTILE_ASSIGN_OR_RETURN(policy, Policy::FromJsonText(app.policy_json));
    s.policy_s = watch.ElapsedSeconds();
    watch.Reset();
    TURNSTILE_ASSIGN_OR_RETURN(analysis, AnalyzeProgram(program));
    s.analyze_s = watch.ElapsedSeconds();
    s.graph_nodes = analysis.stats.graph_nodes;
    const InstrumentMode mode = version == AppVersion::kExhaustive ? InstrumentMode::kExhaustive
                                                                   : InstrumentMode::kSelective;
    watch.Reset();
    TURNSTILE_ASSIGN_OR_RETURN(instrumented, InstrumentProgram(program, *policy, mode, &analysis));
    s.instrument_s = watch.ElapsedSeconds();
    const InstrumentStats& stats = instrumented.stats;
    s.calls_injected = stats.labels_injected + stats.binary_ops_wrapped + stats.invokes_wrapped +
                       stats.tracks_injected;
    if (version == AppVersion::kRoundTrip) {
      watch.Reset();
      const std::string printed = PrintProgram(instrumented.program);
      s.print_s = watch.ElapsedSeconds();
      watch.Reset();
      TURNSTILE_ASSIGN_OR_RETURN(reparsed, ParseProgram(printed, app.name + ".printed.js"));
      s.parse_s += watch.ElapsedSeconds();
      watch.Reset();
      ResolveProgram(reparsed);
      s.resolve_s = watch.ElapsedSeconds();
    }
  }
  obs::Counter* chunks = obs::Metrics::Global().GetCounter("vm.chunks_compiled");
  const uint64_t chunks_before = chunks->value();
  auto context = RuntimeContext::CreateIsolated();
  watch.Reset();
  TURNSTILE_ASSIGN_OR_RETURN(runtime, AppRuntime::Create(app, version, kTier, context.get()));
  s.create_s = watch.ElapsedSeconds();
  TURNSTILE_ASSIGN_OR_RETURN(message_template, Json::Parse(app.message_template));
  Rng rng(rng_seed);
  watch.Reset();
  Value msg = GenerateMessage(message_template, &rng, 0);
  s.generate_s = watch.ElapsedSeconds();
  watch.Reset();
  TURNSTILE_RETURN_IF_ERROR(runtime->InjectValue(std::move(msg)));
  s.inject_s = watch.ElapsedSeconds();
  s.chunks_compiled = static_cast<double>(chunks->value() - chunks_before);
  return s;
}

SetupLayers ReportSetupLayers(const std::vector<MixEntry>& mix, AppVersion version,
                              uint64_t rng_seed, Report* report) {
  SetupLayers mean;
  for (const MixEntry& entry : mix) {
    auto staged = DecomposeSetup(*entry.app, version, rng_seed);
    report->Check(staged.ok(), entry.app->name + ": staged setup: " + staged.status().ToString());
    if (!staged.ok()) {
      continue;
    }
    const double w = entry.tenant_weight;
    mean.parse_s += w * staged->parse_s;
    mean.resolve_s += w * staged->resolve_s;
    mean.print_s += w * staged->print_s;
    mean.policy_s += w * staged->policy_s;
    mean.analyze_s += w * staged->analyze_s;
    mean.instrument_s += w * staged->instrument_s;
    mean.create_s += w * staged->create_s;
    mean.generate_s += w * staged->generate_s;
    mean.inject_s += w * staged->inject_s;
    mean.graph_nodes += w * staged->graph_nodes;
    mean.calls_injected += w * staged->calls_injected;
    mean.chunks_compiled += w * staged->chunks_compiled;
  }
  report->Set("lang.parse_ms", mean.parse_s * 1e3);
  report->Set("lang.resolve_ms", mean.resolve_s * 1e3);
  report->Set("lang.print_ms", mean.print_s * 1e3);
  report->Set("ifc.policy_ms", mean.policy_s * 1e3);
  report->Set("analysis.analyze_ms", mean.analyze_s * 1e3);
  report->Set("analysis.graph_nodes", mean.graph_nodes);
  report->Set("instrument.instrument_ms", mean.instrument_s * 1e3);
  report->Set("instrument.calls_injected", mean.calls_injected);
  report->Set("vm.chunks_compiled", mean.chunks_compiled);
  report->Set("corpus.load_ms", mean.load_s() * 1e3);
  std::printf("set-up layers (mean per deployment): stages %.3f ms of Create %.3f ms, "
              "first message %.3f ms\n",
              mean.stages_s() * 1e3, mean.create_s * 1e3,
              (mean.generate_s + mean.inject_s) * 1e3);
  return mean;
}

}  // namespace turnstile::e2e
