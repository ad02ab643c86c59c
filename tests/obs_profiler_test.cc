// The profiler's aggregates and the trace views over the event log: per-message
// interval trees from a real corpus app, a trace that reads the same under
// every execution tier, monitor/app attribution, per-line VM coverage,
// exporter validity, per-node turn histograms, and the disabled-path no-op
// contract. Each TEST runs in its own process (ctest discovery), so global
// profiler/event-log state never leaks across tests.
#include "src/obs/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
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

// Drives `messages` messages of `app`'s selective version under the enabled
// global profiler and event log. Warm-up happens outside the profiled window
// so caches (compiled labellers, chunks) do not pollute attribution.
void RunProfiledApp(ExecTier tier = ExecTier::kBytecode, const char* app_name = kApp,
                    int messages = kMessages) {
  const CorpusApp* app = FindCorpusApp(app_name);
  ASSERT_NE(app, nullptr);
  auto runtime = AppRuntime::Create(*app, AppVersion::kSelective, tier);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(0xBE11C0DE);
  for (int seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE((*runtime)->DriveMessage(&rng, seq).ok());
  }
  Profiler::Global().Enable();
  EventLog::Global().Enable(1 << 16);
  for (int seq = 0; seq < messages; ++seq) {
    ASSERT_TRUE((*runtime)->DriveMessage(&rng, 100 + seq).ok());
  }
  ASSERT_EQ(EventLog::Global().dropped(), 0u);
}

// The Chrome trace view of the global log, parsed back.
Json TraceView() {
  auto parsed = Json::Parse(ChromeTraceJson(EventLog::Global(), Profiler::Global()).Dump());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : Json::Object();
}

// Nesting depth of every trace event (0 = lane root), from the args.parent links.
std::vector<int> Depths(const JsonArray& events) {
  std::unordered_map<int64_t, int64_t> parent_of;
  for (const Json& event : events) {
    parent_of[static_cast<int64_t>(event["args"].GetNumber("seq"))] =
        static_cast<int64_t>(event["args"].GetNumber("parent"));
  }
  std::vector<int> depths;
  for (const Json& event : events) {
    int depth = 0;
    for (int64_t parent = static_cast<int64_t>(event["args"].GetNumber("parent")); parent != 0;
         parent = parent_of[parent]) {
      ++depth;
    }
    depths.push_back(depth);
  }
  return depths;
}

TEST(ProfilerDisabledTest, HotPathsAreNoOps) {
  Profiler& profiler = Profiler::Global();
  ASSERT_FALSE(profiler.enabled());  // disabled is the default
  EXPECT_DOUBLE_EQ(profiler.PushMonitor(), 0.0);
  EXPECT_DOUBLE_EQ(profiler.Pop(), 0.0);
  profiler.EnterFrame(&profiler, "f", 1);
  profiler.ExitFrame();
  profiler.EnterVm();
  profiler.LineTick(3);
  profiler.ExitVm();
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
  const Json trace = TraceView();
  Profiler::Global().Disable();
  const JsonArray& events = trace["traceEvents"].array_items();
  ASSERT_FALSE(events.empty());

  std::unordered_map<int64_t, const Json*> by_seq;
  for (const Json& event : events) {
    by_seq[static_cast<int64_t>(event["args"].GetNumber("seq"))] = &event;
  }
  auto parent_of = [&by_seq](const Json& event) -> const Json* {
    auto it = by_seq.find(static_cast<int64_t>(event["args"].GetNumber("parent")));
    return it == by_seq.end() ? nullptr : it->second;
  };
  auto kind_of = [](const Json* event) { return (*event)["args"].GetString("kind"); };

  // One inject root per driven message, each with at least one child that
  // runs within its interval.
  std::vector<const Json*> roots;
  for (const Json& event : events) {
    if (kind_of(&event) == "inject") {
      roots.push_back(&event);
      EXPECT_GT(event.GetNumber("tid"), 0.0);
      EXPECT_EQ(parent_of(event), nullptr);
    }
  }
  ASSERT_EQ(roots.size(), static_cast<size_t>(kMessages));
  for (const Json* root : roots) {
    int children = 0;
    for (const Json& event : events) {
      if (parent_of(event) == root) {
        ++children;
        EXPECT_EQ(event.GetNumber("tid"), root->GetNumber("tid"));
        EXPECT_GE(event.GetNumber("ts"), root->GetNumber("ts"));
        EXPECT_LE(event.GetNumber("ts") + event.GetNumber("dur"),
                  root->GetNumber("ts") + root->GetNumber("dur") + 1e-6);
      }
    }
    EXPECT_GE(children, 1) << "message root " << root->GetString("name") << " has no child";
  }

  // inject -> loop turn -> __dift.* nesting: at least one DIFT op whose
  // ancestor chain passes through a turn and ends at an inject root.
  // Node-enter markers sit under turns too.
  bool found_dift_chain = false;
  bool found_node_enter = false;
  for (const Json& event : events) {
    const std::string kind = kind_of(&event);
    if (kind == "node_enter") {
      const Json* parent = parent_of(event);
      found_node_enter |= parent != nullptr && kind_of(parent) == "loop_turn";
    }
    if (kind.rfind("dift_", 0) != 0) {
      continue;
    }
    EXPECT_EQ(event.GetString("cat"), "monitor") << event.GetString("name");
    bool through_turn = false;
    for (const Json* cursor = parent_of(event); cursor != nullptr; cursor = parent_of(*cursor)) {
      through_turn |= kind_of(cursor) == "loop_turn";
      if (kind_of(cursor) == "inject") {
        found_dift_chain |= through_turn;
        break;
      }
    }
  }
  EXPECT_TRUE(found_dift_chain) << "no __dift op nested under inject -> turn";
  EXPECT_TRUE(found_node_enter) << "no node-enter marker under a loop turn";
}

TEST(ProfilerSpanTreeTest, TraceIsTheSameUnderEveryTier) {
  // The trace is a view of the event log, which every tier writes through
  // the same tracker and engine sites: fused opcodes, call-lowered natives
  // and the tree-walker yield one multiset of (name, depth) and exactly one
  // trace event per logged event.
  constexpr int kTierMessages = 10;
  std::vector<std::multiset<std::pair<std::string, int>>> shapes;
  for (ExecTier tier : {ExecTier::kBytecode, ExecTier::kBytecodeLowered, ExecTier::kTreeWalk}) {
    RunProfiledApp(tier, "camera-motion", kTierMessages);
    const Json trace = TraceView();
    const JsonArray& events = trace["traceEvents"].array_items();
    EXPECT_EQ(events.size(), EventLog::Global().size());
    EXPECT_EQ(events.size(), EventLog::Global().recorded());
    const std::vector<int> depths = Depths(events);
    std::multiset<std::pair<std::string, int>> shape;
    bool monitor_invoke = false;
    for (size_t i = 0; i < events.size(); ++i) {
      shape.emplace(events[i].GetString("name"), depths[i]);
      monitor_invoke |= events[i].GetString("cat") == "monitor" &&
                        events[i]["args"].GetString("kind") == "dift_invoke";
    }
    EXPECT_TRUE(monitor_invoke) << "tier " << static_cast<int>(tier);
    shapes.push_back(std::move(shape));
    EventLog::Global().Disable();
    Profiler::Global().Disable();
  }
  ASSERT_EQ(shapes.size(), 3u);
  EXPECT_GT(shapes[0].size(), static_cast<size_t>(kTierMessages));
  EXPECT_TRUE(shapes[0] == shapes[1]) << "fused vs call-lowered trace differs";
  EXPECT_TRUE(shapes[0] == shapes[2]) << "fused vs tree-walk trace differs";
}

TEST(ProfilerExportTest, ChromeTraceParsesAsValidJsonWithCompleteSpans) {
  RunProfiledApp();
  std::string dumped =
      ChromeTraceJson(EventLog::Global(), Profiler::Global()).Dump(/*pretty=*/true);
  Profiler::Global().Disable();

  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& trace = *parsed;
  ASSERT_TRUE(trace["traceEvents"].is_array());
  ASSERT_FALSE(trace["traceEvents"].array_items().empty());
  EXPECT_EQ(trace.GetString("displayTimeUnit"), "ms");
  EXPECT_EQ(trace["traceEvents"].array_items().size(), EventLog::Global().size());

  int inject_events = 0;
  for (const Json& event : trace["traceEvents"].array_items()) {
    EXPECT_EQ(event.GetString("ph"), "X");  // every event exports complete
    EXPECT_TRUE(event["ts"].is_number());
    EXPECT_TRUE(event["dur"].is_number());
    EXPECT_GE(event.GetNumber("dur"), 0.0);
    EXPECT_TRUE(event["tid"].is_number());
    std::string cat = event.GetString("cat");
    EXPECT_TRUE(cat == "app" || cat == "monitor") << cat;
    if (event["args"].GetString("kind") == "inject") {
      ++inject_events;
      EXPECT_EQ(event.GetString("name").rfind("inject:", 0), 0u);
    }
  }
  // One message root per driven message.
  EXPECT_EQ(inject_events, kMessages);

  // The embedded profile summary rides along for tooling.
  ASSERT_TRUE(trace["turnstileProfile"].is_object());
  EXPECT_TRUE(trace["turnstileProfile"]["split"].Has("overhead_fraction"));
  EXPECT_FALSE(trace["turnstileProfile"]["functions"].array_items().empty());
}

TEST(ProfilerExportTest, CollapsedStacksAreWellFormed) {
  RunProfiledApp();
  std::string folded = CollapsedStacks(EventLog::Global());
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
  // The line clock lives in the VM dispatch loop of the default bytecode tier.
  RunProfiledApp();
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

TEST(ProfilerMetricsTest, NodeTurnHistogramCountsEveryTurnUnderTheLoweredTier) {
  // The per-node histogram is an aggregate with no capacity: every profiled
  // turn lands in it, however many DIFT ops the call-lowered tier logs.
  constexpr int kTurns = 100;
  const CorpusApp* app = FindCorpusApp("camera-motion");
  ASSERT_NE(app, nullptr);
  auto runtime = AppRuntime::Create(*app, AppVersion::kSelective, ExecTier::kBytecodeLowered);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  Rng rng(0xBE11C0DE);
  Profiler::Global().Enable();
  for (int seq = 0; seq < kTurns; ++seq) {
    ASSERT_TRUE((*runtime)->DriveMessage(&rng, seq).ok());
  }
  Profiler::Global().Disable();
  const Json snapshot = Metrics::Global().ToJson();
  const Json& hist =
      snapshot["histograms"][MetricWithLabel("flow.node_turn_seconds", "node", "m1")];
  ASSERT_TRUE(hist.is_object()) << snapshot.Dump(true);
  EXPECT_GE(hist.GetNumber("count"), static_cast<double>(kTurns));
}

}  // namespace
}  // namespace obs
}  // namespace turnstile
