// Corpus profiling driver: runs one corpus app under the profiler and the
// event log and exports its profile and trace views.
//
//   profile_app <app> [--messages=N] [--version=original|selective|exhaustive|roundtrip]
//               [--disasm] [--profile=PATH] [--trace-export=PATH] [--json[=PATH]]
//
//   --disasm             print the fused bytecode listing of the program and
//                        every function and exit without driving messages.
//
//   --trace-export=PATH  Chrome trace-event JSON (open in Perfetto or
//                        chrome://tracing), one event per logged event;
//                        carries the turnstileProfile summary as an extra
//                        top-level key.
//   --profile=PATH       collapsed-stack text (pipe into flamegraph.pl or
//                        load in speedscope).
//   --json[=PATH]        metrics-registry snapshot (the shared bench flag) —
//                        includes the per-node flow.node_turn_seconds
//                        histograms with p50/p90/p99 recorded by this run.
//
// Without an app name, lists the corpus. The summary printed to stdout shows
// the monitor/app split, the hottest functions/lines, and per-node latency
// percentiles.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/interp/interp.h"
#include "src/lang/ast.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/support/rng.h"
#include "src/vm/bytecode.h"
#include "src/vm/compiler.h"
#include "tools/cli_args.h"

namespace turnstile {
namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "profile_app: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  return true;
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: profile_app <app> [--messages=N] [--version=V] [--disasm]\n"
               "                   [--profile=PATH] [--trace-export=PATH] [--json[=PATH]]\n"
               "corpus apps:\n");
  for (const CorpusApp& app : Corpus()) {
    std::fprintf(out, "  %s\n", app.name.c_str());
  }
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

int Main(int argc, char** argv) {
  std::string app_name;
  int messages = 200;
  AppVersion version = AppVersion::kSelective;
  bool disasm = false;
  std::string profile_path;
  std::string trace_export_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    cli::FlagParse parse;
    if ((parse = cli::ParseIntFlag(arg, "--messages", "profile_app", 1, 1000000, &messages)) !=
        cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if (arg.rfind("--version=", 0) == 0) {
      std::string v = arg.substr(10);
      if (v == "original") {
        version = AppVersion::kOriginal;
      } else if (v == "selective") {
        version = AppVersion::kSelective;
      } else if (v == "exhaustive") {
        version = AppVersion::kExhaustive;
      } else if (v == "roundtrip") {
        version = AppVersion::kRoundTrip;
      } else {
        std::fprintf(stderr, "profile_app: unknown version '%s'\n", v.c_str());
        return 2;
      }
    } else if (arg == "--disasm") {
      disasm = true;
    } else if (cli::ParseStringFlag(arg, "--profile", "profile_app", nullptr, &profile_path) ==
               cli::FlagParse::kOk) {
    } else if (cli::ParseStringFlag(arg, "--trace-export", "profile_app", nullptr,
                                    &trace_export_path) == cli::FlagParse::kOk) {
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      // handled by MaybeWriteMetricsSnapshot after the run
    } else if (!arg.empty() && arg[0] != '-') {
      if (!app_name.empty()) {
        std::fprintf(stderr, "profile_app: unexpected extra argument '%s' (app is '%s')\n",
                     arg.c_str(), app_name.c_str());
        return Usage();
      }
      app_name = arg;
    } else {
      std::fprintf(stderr, "profile_app: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (app_name.empty()) {
    std::fprintf(stderr, "profile_app: missing app name\n");
    return Usage();
  }
  const CorpusApp* app = FindCorpusApp(app_name);
  if (app == nullptr) {
    std::fprintf(stderr, "profile_app: unknown corpus app '%s'\n", app_name.c_str());
    return Usage();
  }

  auto runtime = AppRuntime::Create(*app, version);
  if (!runtime.ok() && version == AppVersion::kSelective) {
    // Apps without detected paths carry no usable policy; profile the
    // original program instead (all-app split by construction).
    std::fprintf(stderr, "profile_app: selective setup failed (%s); using original version\n",
                 runtime.status().ToString().c_str());
    version = AppVersion::kOriginal;
    runtime = AppRuntime::Create(*app, version);
  }
  if (!runtime.ok()) {
    std::fprintf(stderr, "profile_app: %s setup failed: %s\n", app->name.c_str(),
                 runtime.status().ToString().c_str());
    return 1;
  }

  if (disasm) {
    // Compile-and-print, no execution: show exactly the chunks the fused VM
    // runs (program top level, every function body, and every try, catch and
    // finally block).
    const NodePtr& root = (*runtime)->program_root();
    vm::ChunkPtr program_chunk = vm::GetOrCompileProgramFused(root);
    std::printf("=== %s: program (fused) ===\n%s", app->name.c_str(),
                vm::DisassembleChunk(*program_chunk).c_str());
    // `entry_decls` as the VM passes them: parameters, or the catch parameter.
    auto print_body = [&](const char* what, const std::string& name, const NodePtr& owner,
                          const NodePtr& body, std::span<const NodePtr> entry_decls) {
      vm::ChunkPtr chunk = vm::GetOrCompileFunctionBodyFused(body, entry_decls);
      std::printf("\n=== %s %s (line %d) ===\n%s", what, name.c_str(), owner->loc.line,
                  vm::DisassembleChunk(*chunk).c_str());
    };
    ForEachNode(root, [&](const NodePtr& node) {
      if (node->IsFunctionLike()) {
        print_body("function", node->str.empty() ? "<anonymous>" : node->str, node,
                   node->children[1], node->children[0]->children);
      } else if (node->kind == NodeKind::kTryStmt) {
        const char* blocks[] = {"try", nullptr, "catch", "finally"};
        const NodePtr& param = node->children[1];
        for (size_t i : {0, 2, 3}) {
          std::span<const NodePtr> entry_decls;
          if (i == 2 && param->kind != NodeKind::kEmpty) {
            entry_decls = std::span<const NodePtr>(&param, 1);
          }
          if (node->children[i]->kind == NodeKind::kBlockStmt) {
            print_body("block", blocks[i], node->children[i], node->children[i], entry_decls);
          }
        }
      }
    });
    return 0;
  }

  // Warm-up runs outside the profiled window and doubles as the log's sizing
  // run: the trace views need every profiled message's events in the ring.
  constexpr int kWarmupMessages = 20;
  constexpr uint64_t kMaxLogEvents = uint64_t{1} << 20;
  obs::EventLog& log = obs::EventLog::Global();
  log.Enable();
  Rng rng(0xBE11C0DE);
  for (int seq = 0; seq < kWarmupMessages; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, seq);
    if (!status.ok()) {
      std::fprintf(stderr, "profile_app: warm-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  const uint64_t events_per_message = log.recorded() / kWarmupMessages + 1;
  log.Enable(std::min(2 * events_per_message * static_cast<uint64_t>(messages), kMaxLogEvents));

  obs::Profiler& profiler = obs::Profiler::Global();
  profiler.Enable();
  for (int seq = 0; seq < messages; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, 100 + seq);
    if (!status.ok()) {
      std::fprintf(stderr, "profile_app: message %d failed: %s\n", seq,
                   status.ToString().c_str());
      return 1;
    }
  }

  // --- exports ---------------------------------------------------------------
  if (!trace_export_path.empty()) {
    if (!WriteFile(trace_export_path, obs::ChromeTraceJson(log, profiler).Dump() + "\n")) {
      return 1;
    }
    std::printf("Chrome trace written to %s (open in https://ui.perfetto.dev)\n",
                trace_export_path.c_str());
  }
  if (!profile_path.empty()) {
    if (!WriteFile(profile_path, obs::CollapsedStacks(log))) {
      return 1;
    }
    std::printf("collapsed stacks written to %s (flamegraph.pl %s > flame.svg)\n",
                profile_path.c_str(), profile_path.c_str());
  }

  // --- summary ---------------------------------------------------------------
  obs::OverheadSplit split = profiler.split();
  std::printf("\n%s (%s, %d messages): %llu events (%llu dropped)\n", app->name.c_str(),
              version == AppVersion::kOriginal     ? "original"
              : version == AppVersion::kSelective  ? "selective"
              : version == AppVersion::kExhaustive ? "exhaustive"
                                                   : "roundtrip",
              messages, static_cast<unsigned long long>(log.recorded()),
              static_cast<unsigned long long>(log.dropped()));
  std::printf("split: app %.3f ms, monitor %.3f ms -> overhead fraction %.4f\n",
              split.app_s * 1e3, split.monitor_s * 1e3, split.fraction());

  std::printf("\ntop functions by self time (app/monitor):\n");
  std::vector<obs::FunctionProfile> functions = profiler.FunctionsSnapshot();
  size_t shown = 0;
  for (const obs::FunctionProfile& fn : functions) {
    if (shown++ >= 10) {
      break;
    }
    std::printf("  %-32s %-7s line %-4d calls %-8llu self %8.3f ms  total %8.3f ms\n",
                fn.name.c_str(), fn.monitor ? "monitor" : "app", fn.line,
                static_cast<unsigned long long>(fn.calls), fn.self_s * 1e3, fn.total_s * 1e3);
  }

  std::printf("\ntop source lines by self time (VM wall %.3f ms):\n",
              profiler.vm_seconds() * 1e3);
  std::vector<obs::LineProfile> lines = profiler.LinesSnapshot();
  std::sort(lines.begin(), lines.end(),
            [](const obs::LineProfile& a, const obs::LineProfile& b) {
              return a.self_s > b.self_s;
            });
  shown = 0;
  for (const obs::LineProfile& line : lines) {
    if (shown++ >= 10) {
      break;
    }
    std::printf("  line %-5d self %8.3f ms  (%llu ticks)\n", line.line, line.self_s * 1e3,
                static_cast<unsigned long long>(line.ticks));
  }

  std::printf("\nper-node turn latency (p50/p90/p99 us):\n");
  const Json snapshot = obs::Metrics::Global().ToJson();
  for (const auto& [name, entry] : snapshot["histograms"].object_items()) {
    if (name.rfind("flow.node_turn_seconds{", 0) != 0) {
      continue;
    }
    std::printf("  %-40s %8.2f %8.2f %8.2f  (%llu turns)\n", name.c_str(),
                entry.GetNumber("p50") * 1e6, entry.GetNumber("p90") * 1e6,
                entry.GetNumber("p99") * 1e6,
                static_cast<unsigned long long>(entry.GetNumber("count")));
  }
  return 0;
}

}  // namespace
}  // namespace turnstile

int main(int argc, char** argv) {
  int rc = turnstile::Main(argc, argv);
  turnstile::obs::MaybeWriteMetricsSnapshot(argc, argv);
  return rc;
}
