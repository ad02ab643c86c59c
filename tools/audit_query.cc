// Privacy-accounting queries over the event log's decisions — the
// flow-provenance audit ledger (ISSUE 6).
//
//   audit_query [<app>] [--messages=N] [--source=LABEL] [--sink=NAME]
//               [--out=PATH] [--check-fig10] [--fleet-lineage]
//
// Runs corpus apps (all 61 by default) under the selectively-instrumented
// version with the event log enabled, then answers accounting questions
// from the recorded events:
//
//   default          per-app source→sink *exposure matrix*: for every
//                    sink-write event, which source labels were on the data
//                    when it crossed the sink — the "who saw what" table.
//   --source/--sink  lineage query: why did data labelled LABEL reach sink
//                    NAME — prints the attach event that introduced the
//                    label, the merge events that propagated it, and the
//                    flow check / sink write where it arrived.
//   --out=PATH       writes the matrix (plus per-app accounting totals and
//                    the consistency verdict) as JSON.
//   --check-fig10    cross-checks ledger-derived violations against the
//                    corpus ground truth that bench_fig10_detection uses:
//                    (a) per app, the ledger's denied flow-check events must
//                    agree 1:1 with the tracker's recorded violations;
//                    (b) any app with runtime violations must have
//                    ground_truth_paths > 0. Exits non-zero on disagreement.
//   --fleet-lineage  cross-APP lineage: wires a terminal-emitting corpus app
//                    into a second app on a different fleet shard, runs the
//                    pair with fleet trace propagation on, and prints the
//                    assembled source -> wire -> sink chain (per-hop audit
//                    events stitched by fleet trace id). Exits non-zero when
//                    no message crossed the wire.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/obs/event_log.h"
#include "src/runtime/fleet.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "tools/cli_args.h"

namespace turnstile {
namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: audit_query [<app>] [--messages=N] [--source=LABEL] [--sink=NAME]\n"
               "                   [--out=PATH] [--check-fig10] [--fleet-lineage]\n");
}

// Everything the ledger tells us about one app's run.
struct AppAudit {
  std::string app;
  bool ran = false;
  std::string skip_reason;
  int ground_truth_paths = 0;
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t flows_allowed = 0;
  uint64_t flows_denied = 0;
  size_t tracker_violations = 0;
  // source label -> sink subject -> sink-write count (the exposure matrix).
  std::map<std::string, std::map<std::string, uint64_t>> exposure;
  std::vector<obs::Event> ledger;  // the log's decisions, kept for lineage queries
};

AppAudit RunApp(const CorpusApp& app, int messages) {
  AppAudit out;
  out.app = app.name;
  out.ground_truth_paths = app.ground_truth_paths;

  obs::EventLog& log = obs::EventLog::Global();
  // Fresh enable per app: resets the sequence counter and trace numbering,
  // so runs are reproducible app by app.
  log.Disable();
  log.Enable(1u << 18);

  auto runtime = AppRuntime::Create(app, AppVersion::kSelective);
  if (!runtime.ok()) {
    // Apps without detected paths carry no usable policy (profile_app makes
    // the same call); without a tracker there is no ledger to account.
    out.skip_reason = runtime.status().ToString();
    log.Disable();
    return out;
  }
  Rng rng(0xBE11C0DE);
  for (int seq = 0; seq < messages; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, seq);
    if (!status.ok()) {
      out.skip_reason = "message " + std::to_string(seq) + ": " + status.ToString();
      log.Disable();
      return out;
    }
  }
  out.ran = true;
  out.events = log.decisions();
  out.dropped = log.dropped();
  out.tracker_violations = (*runtime)->tracker()->violations().size();
  out.ledger = log.Decisions();

  const Policy& policy = (*runtime)->tracker()->policy();
  const LabelSetPool& pool = policy.pool();
  const LabelSpace& space = policy.space();
  for (const obs::Event& event : out.ledger) {
    if (event.kind == obs::EventKind::kFlowCheck) {
      ++(event.allowed ? out.flows_allowed : out.flows_denied);
    }
    if (event.kind == obs::EventKind::kSinkWrite && event.data != kEmptyLabelSetRef) {
      for (LabelId id : pool.Ids(event.data)) {
        ++out.exposure[space.NameOf(id)][event.subject];
      }
    }
  }
  log.Disable();
  return out;
}

// Lineage: the event chain that carried `source_label` into `sink`. The
// snapshot carries rendered label names, so the chain is reconstructed from
// the event strings alone: an event touches the label iff its rendered
// `detail` field names it.
int ExplainLineage(const AppAudit& audit, const std::string& source_label,
                   const std::string& sink) {
  auto mentions = [&source_label](const obs::Event& event) {
    return event.detail.find(source_label) != std::string::npos;
  };
  std::printf("\n%s: lineage of '%s' -> '%s'\n", audit.app.c_str(), source_label.c_str(),
              sink.c_str());
  bool introduced = false;
  bool arrived = false;
  for (const obs::Event& event : audit.ledger) {
    switch (event.kind) {
      case obs::EventKind::kLabelAttach:
      case obs::EventKind::kInvokeLabeller:
      case obs::EventKind::kDeclassify:
        if (mentions(event)) {
          if (!introduced) {
            introduced = true;
            std::printf("  introduced  %s\n", event.Canonical().c_str());
          }
        }
        break;
      case obs::EventKind::kMerge:
        if (mentions(event)) {
          std::printf("  propagated  %s\n", event.Canonical().c_str());
        }
        break;
      case obs::EventKind::kFlowCheck:
        if (event.subject == sink && mentions(event)) {
          std::printf("  checked     %s\n", event.Canonical().c_str());
        }
        break;
      case obs::EventKind::kSinkWrite:
        if (event.subject == sink && mentions(event)) {
          arrived = true;
          std::printf("  sink write  %s\n", event.Canonical().c_str());
        }
        break;
      default:  // journey kinds: not in the decisions view
        break;
    }
  }
  if (!introduced) {
    std::printf("  (no attach event introduced '%s')\n", source_label.c_str());
  }
  if (!arrived) {
    std::printf("  (no sink write carried '%s' into '%s')\n", source_label.c_str(),
                sink.c_str());
    return 1;
  }
  return 0;
}

// Cross-app lineage over the fleet (ISSUE 10): wire A (a terminal-emitting
// app, pinned to shard 0) into B (pinned to shard 1), run with fleet trace
// propagation enabled, and print the stitched source -> wire -> sink chain —
// each hop's audit events selected by the local trace id its fleet binding
// names. Returns 0 iff at least one fleet trace crossed the wire.
int FleetLineage(int messages) {
  // Probe for a source worth wiring: its drive must produce terminal sends
  // (flow outputs) — otherwise nothing ever crosses.
  const CorpusApp* source = nullptr;
  for (const CorpusApp& app : Corpus()) {
    auto context = RuntimeContext::CreateIsolated();
    auto runtime =
        AppRuntime::Create(app, AppVersion::kSelective, ExecTier::kBytecode, context.get());
    if (!runtime.ok()) {
      continue;
    }
    int terminal = 0;
    (*runtime)->engine().set_terminal_sink(
        [&terminal](const std::string&, const Value&, uint64_t) { ++terminal; });
    Rng rng(0xBE11C0DE);
    bool ok = true;
    for (int seq = 0; seq < messages && ok; ++seq) {
      ok = (*runtime)->DriveMessage(&rng, seq).ok();
    }
    if (ok && terminal > 0) {
      source = &app;
      break;
    }
  }
  if (source == nullptr) {
    std::fprintf(stderr, "audit_query: no corpus app emits terminal sends\n");
    return 1;
  }
  const CorpusApp* destination = nullptr;
  for (const CorpusApp& app : Corpus()) {
    if (&app != source && !app.entry_kind.empty()) {
      destination = &app;
      break;
    }
  }
  if (destination == nullptr) {
    std::fprintf(stderr, "audit_query: no destination app with an entry point\n");
    return 1;
  }

  FleetRuntime::Options options;
  options.shards = 2;
  options.version = AppVersion::kSelective;
  options.event_capacity = 1u << 18;
  FleetRuntime fleet(options);
  const std::string src_id = fleet.AddApp(*source, /*shard=*/0);
  const std::string dst_id = fleet.AddApp(*destination, /*shard=*/1);
  Status status = fleet.Wire(src_id, dst_id);
  if (status.ok()) {
    status = fleet.Start();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "audit_query: fleet setup: %s\n", status.ToString().c_str());
    return 1;
  }
  for (int seq = 0; seq < messages; ++seq) {
    fleet.Post(src_id, seq);
  }
  fleet.Drain();

  obs::FleetTraceAssembler assembled = fleet.AssembleTrace();
  int rc = 1;
  for (uint64_t id : assembled.FleetTraceIds()) {
    std::vector<obs::FleetTraceAssembler::Hop> hops = assembled.HopsOf(id);
    if (hops.size() < 2) {
      continue;  // never crossed the wire
    }
    std::printf("fleet trace %llu: %s -> %s (%zu hops)\n",
                static_cast<unsigned long long>(id), src_id.c_str(), dst_id.c_str(),
                hops.size());
    for (const obs::FleetTraceAssembler::Hop& hop : hops) {
      if (hop.hop > 0) {
        std::printf("  [wire hop %u] serialized Json crossing -> %s (parent span %llu)\n",
                    hop.hop, hop.lane.c_str(),
                    static_cast<unsigned long long>(hop.parent_span));
      }
      std::printf("  [hop %u] %s @%s (local trace %llu)\n", hop.hop, hop.source.c_str(),
                  hop.lane.c_str(), static_cast<unsigned long long>(hop.local_trace_id));
      RuntimeContext* context = fleet.context_of(hop.source);
      if (context == nullptr) {
        continue;
      }
      int printed = 0;
      for (const obs::Event& event : context->event_log().Decisions()) {
        if (event.trace_id != hop.local_trace_id) {
          continue;
        }
        if (++printed > 8) {
          std::printf("    ...\n");
          break;
        }
        std::printf("    %s\n", event.Canonical().c_str());
      }
    }
    rc = 0;
    break;
  }
  fleet.Stop();
  if (rc != 0) {
    std::fprintf(stderr, "audit_query: no fleet trace crossed the %s -> %s wire\n",
                 src_id.c_str(), dst_id.c_str());
  }
  return rc;
}

int Main(int argc, char** argv) {
  std::string app_filter;
  std::string source_label;
  std::string sink_name;
  std::string out_path;
  int messages = 5;
  bool check_fig10 = false;
  bool fleet_lineage = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    cli::FlagParse parse;
    if ((parse = cli::ParseIntFlag(arg, "--messages", "audit_query", 1, 100000, &messages)) !=
        cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseStringFlag(arg, "--source", "audit_query", "label name",
                                             &source_label)) != cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseStringFlag(arg, "--sink", "audit_query", "sink name",
                                             &sink_name)) != cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseStringFlag(arg, "--out", "audit_query", "path", &out_path)) !=
               cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if (arg == "--check-fig10") {
      check_fig10 = true;
    } else if (arg == "--fleet-lineage") {
      fleet_lineage = true;
    } else if (!arg.empty() && arg[0] != '-') {
      if (!app_filter.empty()) {
        std::fprintf(stderr, "audit_query: unexpected extra argument '%s' (app is '%s')\n",
                     arg.c_str(), app_filter.c_str());
        PrintUsage(stderr);
        return 2;
      }
      app_filter = arg;
    } else {
      std::fprintf(stderr, "audit_query: unknown argument '%s'\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (source_label.empty() != sink_name.empty()) {
    std::fprintf(stderr, "audit_query: --source and --sink must be used together\n");
    return 2;
  }
  if (!app_filter.empty() && FindCorpusApp(app_filter) == nullptr) {
    std::fprintf(stderr, "audit_query: unknown corpus app '%s'\n", app_filter.c_str());
    return 2;
  }
  if (fleet_lineage) {
    return FleetLineage(messages);
  }

  std::vector<AppAudit> audits;
  for (const CorpusApp& app : Corpus()) {
    if (!app_filter.empty() && app.name != app_filter) {
      continue;
    }
    audits.push_back(RunApp(app, messages));
  }

  // --- lineage query ---------------------------------------------------------
  if (!source_label.empty()) {
    int rc = 1;
    for (const AppAudit& audit : audits) {
      if (!audit.ran) {
        continue;
      }
      if (ExplainLineage(audit, source_label, sink_name) == 0) {
        rc = 0;
      }
    }
    return rc;
  }

  // --- exposure matrix + accounting ------------------------------------------
  uint64_t total_events = 0;
  uint64_t total_allowed = 0;
  uint64_t total_denied = 0;
  int apps_ran = 0;
  Json apps_json = Json::Object();
  std::vector<std::string> mismatches;
  for (const AppAudit& audit : audits) {
    Json entry = Json::Object();
    entry.Set("ground_truth_paths", Json(audit.ground_truth_paths));
    if (!audit.ran) {
      entry.Set("skipped", Json(audit.skip_reason));
      apps_json.Set(audit.app, std::move(entry));
      continue;
    }
    ++apps_ran;
    total_events += audit.events;
    total_allowed += audit.flows_allowed;
    total_denied += audit.flows_denied;
    entry.Set("events", Json(audit.events));
    entry.Set("dropped", Json(audit.dropped));
    entry.Set("flows_allowed", Json(audit.flows_allowed));
    entry.Set("flows_denied", Json(audit.flows_denied));
    entry.Set("tracker_violations", Json(audit.tracker_violations));
    Json exposure = Json::Object();
    for (const auto& [source, sinks] : audit.exposure) {
      Json row = Json::Object();
      for (const auto& [sink, count] : sinks) {
        row.Set(sink, Json(count));
      }
      exposure.Set(source, std::move(row));
    }
    entry.Set("exposure", std::move(exposure));
    apps_json.Set(audit.app, std::move(entry));

    // Consistency: the ledger's denied flow checks ARE the tracker's
    // violations — every RecordViolation site ledgered a deny first.
    if (audit.flows_denied != audit.tracker_violations) {
      mismatches.push_back(audit.app + ": ledger denied " +
                           std::to_string(audit.flows_denied) + " flows but tracker holds " +
                           std::to_string(audit.tracker_violations) + " violations");
    }
    if (audit.flows_denied > 0 && audit.ground_truth_paths == 0) {
      mismatches.push_back(audit.app + ": ledger-derived violations on an app whose ground "
                           "truth has no source->sink paths");
    }
  }

  // Human-readable matrix.
  for (const AppAudit& audit : audits) {
    if (!audit.ran || audit.exposure.empty()) {
      continue;
    }
    std::printf("%s (gt_paths=%d, events=%llu, allow=%llu, deny=%llu):\n", audit.app.c_str(),
                audit.ground_truth_paths, static_cast<unsigned long long>(audit.events),
                static_cast<unsigned long long>(audit.flows_allowed),
                static_cast<unsigned long long>(audit.flows_denied));
    for (const auto& [source, sinks] : audit.exposure) {
      for (const auto& [sink, count] : sinks) {
        std::printf("  %-24s -> %-28s x%llu\n", source.c_str(), sink.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }
  std::printf("\n%d/%zu apps ran: %llu ledger events, %llu flows allowed, %llu denied\n",
              apps_ran, audits.size(), static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_allowed),
              static_cast<unsigned long long>(total_denied));

  bool consistent = mismatches.empty();
  if (check_fig10) {
    for (const std::string& mismatch : mismatches) {
      std::fprintf(stderr, "audit_query: MISMATCH %s\n", mismatch.c_str());
    }
    std::printf("fig10 cross-check: %s\n", consistent ? "consistent" : "MISMATCH");
  }

  if (!out_path.empty()) {
    Json root = Json::Object();
    root.Set("apps", std::move(apps_json));
    Json totals = Json::Object();
    totals.Set("apps_ran", Json(apps_ran));
    totals.Set("events", Json(total_events));
    totals.Set("flows_allowed", Json(total_allowed));
    totals.Set("flows_denied", Json(total_denied));
    root.Set("totals", std::move(totals));
    Json consistency = Json::Object();
    consistency.Set("ok", Json(consistent));
    Json mismatch_json = Json::Array();
    for (const std::string& mismatch : mismatches) {
      mismatch_json.Append(Json(mismatch));
    }
    consistency.Set("mismatches", std::move(mismatch_json));
    root.Set("consistency", std::move(consistency));
    std::string text = root.Dump(/*pretty=*/true) + "\n";
    std::FILE* file = std::fopen(out_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "audit_query: cannot open '%s' for writing\n", out_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    std::printf("matrix written to %s\n", out_path.c_str());
  }

  return check_fig10 && !consistent ? 1 : 0;
}

}  // namespace
}  // namespace turnstile

int main(int argc, char** argv) { return turnstile::Main(argc, argv); }
