// The hierarchical span profiler: per-message span trees from a real corpus
// app, monitor/app attribution, per-line VM coverage, exporter validity, and
// the disabled-path no-op contract. Each TEST runs in its own process (ctest
// discovery), so global profiler/event-log state never leaks across tests.
#include "src/obs/profiler.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/interp/interp.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/event_log.h"
#include "src/support/json.h"

namespace turnstile {
namespace obs {
namespace {

constexpr const char* kApp = "geo-fence";  // node-entry app with DIFT ops
constexpr int kMessages = 6;

// Drives `kMessages` messages of the selective version under the enabled
// global profiler. Warm-up happens outside the profiled window so caches
// (compiled labellers, chunks) do not pollute attribution.
void RunProfiledApp(std::optional<ExecTier> tier = std::nullopt) {
  const CorpusApp* app = FindCorpusApp(kApp);
  ASSERT_NE(app, nullptr);
  auto runtime = AppRuntime::Create(*app, AppVersion::kSelective, tier);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(0xBE11C0DE);
  for (int seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE((*runtime)->DriveMessage(&rng, seq).ok());
  }
  Profiler::Global().Enable();
  for (int seq = 0; seq < kMessages; ++seq) {
    ASSERT_TRUE((*runtime)->DriveMessage(&rng, 100 + seq).ok());
  }
}

TEST(ProfilerDisabledTest, HotPathsAreNoOps) {
  Profiler& profiler = Profiler::Global();
  ASSERT_FALSE(profiler.enabled());  // disabled is the default
  EXPECT_EQ(profiler.BeginMessage(7, "n1"), 0u);
  EXPECT_EQ(profiler.BeginSpan(EventKind::kLoopTurn, "turn", false), 0u);
  profiler.EndSpan(1);  // must not crash
  profiler.EnterFrame(&profiler, "f", 1);
  profiler.ExitFrame();
  profiler.EnterVm();
  profiler.LineTick(3);
  profiler.ExitVm();
  EXPECT_EQ(profiler.SpanSnapshot().size(), 0u);
  EXPECT_EQ(profiler.FunctionsSnapshot().size(), 0u);
  EXPECT_EQ(profiler.LinesSnapshot().size(), 0u);
  EXPECT_DOUBLE_EQ(profiler.vm_seconds(), 0.0);
  OverheadSplit split = profiler.split();
  EXPECT_DOUBLE_EQ(split.app_s, 0.0);
  EXPECT_DOUBLE_EQ(split.monitor_s, 0.0);
  EXPECT_DOUBLE_EQ(split.fraction(), 0.0);
}

TEST(ProfilerSpanTreeTest, CorpusAppBuildsPerMessageTrees) {
  RunProfiledApp();
  std::vector<ProfileSpan> spans = Profiler::Global().SpanSnapshot();
  Profiler::Global().Disable();
  ASSERT_FALSE(spans.empty());

  std::unordered_map<uint64_t, const ProfileSpan*> by_id;
  for (const ProfileSpan& span : spans) {
    by_id[span.id] = &span;
  }

  // One inject root per driven message, each with at least one complete
  // child span.
  std::vector<const ProfileSpan*> roots;
  for (const ProfileSpan& span : spans) {
    if (span.kind == EventKind::kInject) {
      roots.push_back(&span);
      EXPECT_EQ(span.parent, 0u);
      EXPECT_NE(span.trace_id, 0u);
    }
  }
  ASSERT_EQ(roots.size(), static_cast<size_t>(kMessages));
  for (const ProfileSpan* root : roots) {
    int complete_children = 0;
    for (const ProfileSpan& span : spans) {
      if (span.parent == root->id && !span.open && span.end_s >= span.start_s) {
        ++complete_children;
        // Temporal nesting: a child runs within its parent's interval.
        EXPECT_GE(span.start_s, root->start_s);
        EXPECT_LE(span.end_s, root->end_s + 1e-9);
      }
    }
    EXPECT_GE(complete_children, 1) << "message root " << root->id << " has no complete child";
  }

  // inject -> loop turn -> __dift.* nesting: at least one DIFT span whose
  // ancestor chain passes through a turn span and terminates at an inject
  // root. Node-enter markers sit under turns too.
  bool found_dift_chain = false;
  bool found_node_enter = false;
  for (const ProfileSpan& span : spans) {
    bool is_dift = span.kind == EventKind::kDiftLabel || span.kind == EventKind::kDiftBinaryOp ||
                   span.kind == EventKind::kDiftCheck || span.kind == EventKind::kDiftInvoke;
    if (span.kind == EventKind::kNodeEnter) {
      auto parent = by_id.find(span.parent);
      if (parent != by_id.end() && parent->second->kind == EventKind::kLoopTurn) {
        found_node_enter = true;
      }
    }
    if (!is_dift) {
      continue;
    }
    EXPECT_TRUE(span.monitor) << "DIFT span '" << span.name << "' not tagged monitor";
    bool through_turn = false;
    const ProfileSpan* cursor = &span;
    for (size_t hops = 0; hops <= spans.size(); ++hops) {
      auto parent = by_id.find(cursor->parent);
      if (cursor->parent == 0 || parent == by_id.end()) {
        break;
      }
      cursor = parent->second;
      if (cursor->kind == EventKind::kLoopTurn) {
        through_turn = true;
      }
      if (cursor->kind == EventKind::kInject) {
        if (through_turn) {
          found_dift_chain = true;
        }
        break;
      }
    }
  }
  EXPECT_TRUE(found_dift_chain) << "no __dift span nested under inject -> turn";
  EXPECT_TRUE(found_node_enter) << "no node-enter marker under a loop turn";
}

TEST(ProfilerExportTest, ChromeTraceParsesAsValidJsonWithCompleteSpans) {
  RunProfiledApp();
  std::string dumped = Profiler::Global().ChromeTraceJson().Dump(/*pretty=*/true);
  Profiler::Global().Disable();

  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& trace = *parsed;
  ASSERT_TRUE(trace["traceEvents"].is_array());
  ASSERT_FALSE(trace["traceEvents"].array_items().empty());
  EXPECT_EQ(trace.GetString("displayTimeUnit"), "ms");

  int inject_events = 0;
  for (const Json& event : trace["traceEvents"].array_items()) {
    EXPECT_EQ(event.GetString("ph"), "X");  // every span exports complete
    EXPECT_TRUE(event["ts"].is_number());
    EXPECT_TRUE(event["dur"].is_number());
    EXPECT_GE(event.GetNumber("dur"), 0.0);
    EXPECT_TRUE(event["tid"].is_number());
    std::string cat = event.GetString("cat");
    EXPECT_TRUE(cat == "app" || cat == "monitor") << cat;
    if (event["args"].GetString("kind") == "inject") {
      ++inject_events;
    }
  }
  // >= 1 complete span per driven message.
  EXPECT_EQ(inject_events, kMessages);

  // The embedded profile summary rides along for tooling.
  ASSERT_TRUE(trace["turnstileProfile"].is_object());
  EXPECT_TRUE(trace["turnstileProfile"]["split"].Has("overhead_fraction"));
  EXPECT_FALSE(trace["turnstileProfile"]["functions"].array_items().empty());
}

TEST(ProfilerExportTest, CollapsedStacksAreWellFormed) {
  RunProfiledApp();
  std::string folded = Profiler::Global().CollapsedStacks();
  Profiler::Global().Disable();
  ASSERT_FALSE(folded.empty());
  size_t start = 0;
  int lines = 0;
  bool saw_nested_stack = false;
  while (start < folded.size()) {
    size_t end = folded.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    std::string line = folded.substr(start, end - start);
    start = end + 1;
    ++lines;
    // "frame;frame;frame <integer usec>"
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string stack = line.substr(0, space);
    std::string value = line.substr(space + 1);
    ASSERT_FALSE(stack.empty()) << line;
    ASSERT_FALSE(value.empty()) << line;
    EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos) << line;
    EXPECT_GT(std::atoll(value.c_str()), 0) << line;
    if (stack.find(';') != std::string::npos) {
      saw_nested_stack = true;
      EXPECT_EQ(stack.rfind("inject:", 0), 0u) << "stack does not start at a root: " << line;
    }
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_nested_stack) << "no multi-frame stack in:\n" << folded;
}

TEST(ProfilerAttributionTest, MonitorAppSplitAndFunctionTagging) {
  RunProfiledApp();
  Profiler& profiler = Profiler::Global();
  OverheadSplit split = profiler.split();
  std::vector<FunctionProfile> functions = profiler.FunctionsSnapshot();
  profiler.Disable();

  EXPECT_GT(split.app_s, 0.0);
  EXPECT_GT(split.monitor_s, 0.0);
  EXPECT_GT(split.fraction(), 0.0);
  EXPECT_LT(split.fraction(), 1.0);

  bool dift_monitor = false;
  bool app_function = false;
  for (const FunctionProfile& fn : functions) {
    EXPECT_GT(fn.calls, 0u);
    EXPECT_GE(fn.total_s + 1e-12, fn.self_s);
    if (fn.name.rfind("__dift.", 0) == 0) {
      EXPECT_TRUE(fn.monitor) << fn.name;
      dift_monitor = true;
    }
    if (!fn.monitor && fn.self_s > 0.0) {
      app_function = true;
    }
  }
  EXPECT_TRUE(dift_monitor) << "no __dift.* frame was profiled";
  EXPECT_TRUE(app_function) << "no app-side frame with self time";
}

TEST(ProfilerAttributionTest, LineSelfTimeCoversVmWallTime) {
  // Pin the bytecode tier: the line clock lives in the VM dispatch loop, so
  // this must hold regardless of the TURNSTILE_EXEC_TIER default.
  RunProfiledApp(ExecTier::kBytecode);
  Profiler& profiler = Profiler::Global();
  double vm_seconds = profiler.vm_seconds();
  std::vector<LineProfile> lines = profiler.LinesSnapshot();
  profiler.Disable();

  ASSERT_GT(vm_seconds, 0.0);
  ASSERT_FALSE(lines.empty());
  double line_self_total = 0.0;
  bool real_source_line = false;
  for (const LineProfile& line : lines) {
    line_self_total += line.self_s;
    if (line.line > 0 && line.ticks > 0) {
      real_source_line = true;
    }
  }
  EXPECT_TRUE(real_source_line) << "line table attributed nothing to 1-based source lines";
  // The acceptance bar: per-line attribution accounts for >= 95% of measured
  // VM wall time (the clock partitions VM time over lines by construction;
  // the remainder is pre-first-instruction overhead per activation).
  EXPECT_GE(line_self_total, 0.95 * vm_seconds)
      << "line self " << line_self_total << "s vs vm wall " << vm_seconds << "s";
}

TEST(ProfilerAttributionTest, LineSelfTimeCoversVmWallTimeWithTryCatch) {
  // try, catch and finally blocks run as VM sub-chunks whose activations nest
  // inside the enclosing chunk's; the line clock must still partition VM
  // wall time, and the catch block's lines must be attributed.
  auto program = ParseProgram(R"(function work(n) {
  let total = 0;
  for (let i = 0; i < n; i++) {
    try {
      if (i % 3 === 0) { throw i; }
      total += i;
    } catch (e) {
      total -= e;
    } finally {
      total += 1;
    }
  }
  return total;
}
let result = 0;
for (let k = 0; k < 200; k++) { result += work(60); }
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Interpreter interp;
  interp.set_exec_tier(ExecTier::kBytecode);
  Profiler& profiler = Profiler::Global();
  profiler.Enable();
  ASSERT_TRUE(interp.RunProgram(*program).ok());
  double vm_seconds = profiler.vm_seconds();
  std::vector<LineProfile> lines = profiler.LinesSnapshot();
  profiler.Disable();

  ASSERT_GT(vm_seconds, 0.0);
  double line_self_total = 0.0;
  bool catch_line = false;
  for (const LineProfile& line : lines) {
    line_self_total += line.self_s;
    if (line.line == 8 && line.ticks > 0) {
      catch_line = true;  // `total -= e;`
    }
  }
  EXPECT_TRUE(catch_line) << "catch block line 8 was never attributed";
  EXPECT_GE(line_self_total, 0.95 * vm_seconds)
      << "line self " << line_self_total << "s vs vm wall " << vm_seconds << "s";
  EXPECT_LE(line_self_total, vm_seconds * (1 + 1e-9));
}

TEST(ProfilerMetricsTest, PerNodeLatencyHistogramWithPercentiles) {
  RunProfiledApp();
  Profiler::Global().Disable();
  Json snapshot = Metrics::Global().ToJson();
  // geo-fence's flow has a single node "gf"; its turn latencies land in a
  // node-labeled histogram with derived percentile estimates.
  const Json& hist = snapshot["histograms"][MetricWithLabel("flow.node_turn_seconds", "node", "gf")];
  ASSERT_TRUE(hist.is_object()) << snapshot.Dump(true);
  EXPECT_GE(hist.GetNumber("count"), static_cast<double>(kMessages));
  EXPECT_TRUE(hist.Has("p50"));
  EXPECT_TRUE(hist.Has("p90"));
  EXPECT_TRUE(hist.Has("p99"));
  EXPECT_GE(hist.GetNumber("p99") + 1e-15, hist.GetNumber("p50"));
}

}  // namespace
}  // namespace obs
}  // namespace turnstile
