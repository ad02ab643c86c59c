// Microbenchmarks for the DIFT tracker primitives (google-benchmark):
//   - label() with value-dependent label functions (includes boxing)
//   - binaryOp() on labelled vs unlabelled operands
//   - rule-DAG flow checks: first query (O(V+E)) vs cached (O(1)) — the §4.4
//     caching claim
//   - invoke() vs a plain interpreter call — the per-call tracking tax
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "src/dift/tracker.h"
#include "src/lang/parser.h"
#include "src/obs/event_log.h"

namespace turnstile {
namespace {

constexpr const char* kPolicy = R"json({
  "labellers": {
    "byContent": { "$fn": "v => (v.includes(\"employee\") ? \"Alpha\" : \"Beta\")" },
    "const": { "$const": "Alpha" }
  },
  "rules": ["Alpha -> Beta", "Beta -> Gamma"]
})json";

struct Fixture {
  Interpreter interp;
  std::shared_ptr<Policy> policy;
  std::unique_ptr<DiftTracker> tracker;

  Fixture() {
    auto parsed = Policy::FromJsonText(kPolicy);
    if (!parsed.ok()) {
      std::abort();
    }
    policy = std::shared_ptr<Policy>(std::move(parsed).value().release());
    tracker = std::make_unique<DiftTracker>(&interp, policy);
    tracker->Install();
  }
};

void BM_LabelValueType(benchmark::State& state) {
  Fixture f;
  int i = 0;
  for (auto _ : state) {
    Value v("employee-frame-" + std::to_string(i++));
    auto result = f.tracker->Label(v, "byContent");
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_LabelValueType);

void BM_LabelObjectConst(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    ObjectPtr obj = MakeObject();
    obj->Set("payload", Value("data"));
    auto result = f.tracker->Label(Value(obj), "const");
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_LabelObjectConst);

void BM_BinaryOpUnlabelled(benchmark::State& state) {
  Fixture f;
  Value a(21.0);
  Value b(2.0);
  for (auto _ : state) {
    auto result = f.tracker->BinaryOp("*", a, b);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_BinaryOpUnlabelled);

void BM_BinaryOpLabelled(benchmark::State& state) {
  Fixture f;
  auto a = f.tracker->Label(Value("employee-a"), "byContent");
  auto b = f.tracker->Label(Value("employee-b"), "byContent");
  if (!a.ok() || !b.ok()) {
    std::abort();
  }
  for (auto _ : state) {
    auto result = f.tracker->BinaryOp("+", *a, *b);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_BinaryOpLabelled);

// Plain interpreter baseline for the same operation.
void BM_PlainBinaryEval(benchmark::State& state) {
  Interpreter interp;
  Value a("employee-a");
  Value b("employee-b");
  for (auto _ : state) {
    auto result = interp.EvalBinary("+", a, b);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_PlainBinaryEval);

// Rule-DAG reachability: uncached first queries vs cached repeats, on a
// chain lattice of the given depth.
void BM_FlowCheckUncached(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    LabelSpace space;
    RuleGraph graph(&space);
    for (int i = 0; i + 1 < depth; ++i) {
      graph.AddRule("L" + std::to_string(i), "L" + std::to_string(i + 1));
    }
    LabelId from = *space.Find("L0");
    LabelId to = *space.Find("L" + std::to_string(depth - 1));
    state.ResumeTiming();
    benchmark::DoNotOptimize(graph.CanFlowLabel(from, to));
  }
}
BENCHMARK(BM_FlowCheckUncached)->Arg(8)->Arg(64)->Arg(512);

void BM_FlowCheckCached(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  LabelSpace space;
  RuleGraph graph(&space);
  for (int i = 0; i + 1 < depth; ++i) {
    graph.AddRule("L" + std::to_string(i), "L" + std::to_string(i + 1));
  }
  LabelId from = *space.Find("L0");
  LabelId to = *space.Find("L" + std::to_string(depth - 1));
  graph.CanFlowLabel(from, to);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.CanFlowLabel(from, to));
  }
}
BENCHMARK(BM_FlowCheckCached)->Arg(8)->Arg(64)->Arg(512);

// invoke() vs a plain call through the interpreter.
struct CallFixture : Fixture {
  Value receiver;
  FunctionPtr plain_fn;

  CallFixture() {
    auto program = ParseProgram("let svc = { combine: (a, b) => a + b };");
    if (!program.ok() || !interp.RunProgram(*program).ok()) {
      std::abort();
    }
    receiver = *interp.global_env()->Lookup("svc");
    plain_fn = receiver.AsObject()->Get("combine").AsFunction();
  }
};

void BM_PlainCall(benchmark::State& state) {
  CallFixture f;
  for (auto _ : state) {
    auto result = f.interp.CallFunction(f.plain_fn, f.receiver, {Value("a"), Value("b")});
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_PlainCall);

void BM_TrackedInvokeUnlabelled(benchmark::State& state) {
  CallFixture f;
  for (auto _ : state) {
    auto result = f.tracker->Invoke(f.receiver, "combine", {Value("a"), Value("b")});
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_TrackedInvokeUnlabelled);

void BM_TrackedInvokeLabelled(benchmark::State& state) {
  CallFixture f;
  auto labelled = f.tracker->Label(Value("employee-x"), "byContent");
  if (!labelled.ok()) {
    std::abort();
  }
  for (auto _ : state) {
    auto result = f.tracker->Invoke(f.receiver, "combine", {*labelled, Value("b")});
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_TrackedInvokeLabelled);

// Same op with the event log recording: quantifies the enabled-log cost per
// labelled invoke (invoke + flow-check events, memoized detail lookup). The
// disabled path is covered by BM_TrackedInvokeLabelled itself — the log adds
// one branch there.
void BM_TrackedInvokeLabelledAudit(benchmark::State& state) {
  CallFixture f;
  auto labelled = f.tracker->Label(Value("employee-x"), "byContent");
  if (!labelled.ok()) {
    std::abort();
  }
  obs::EventLog::Global().Enable(1u << 12);
  for (auto _ : state) {
    auto result = f.tracker->Invoke(f.receiver, "combine", {*labelled, Value("b")});
    benchmark::DoNotOptimize(result.ok());
  }
  obs::EventLog::Global().Disable();
}
BENCHMARK(BM_TrackedInvokeLabelledAudit);

// DeepLabel over an argument object of the given size — the dominant cost of
// exhaustive instrumentation on dictionary-heavy apps (nlp.js).
void BM_DeepLabelObject(benchmark::State& state) {
  Fixture f;
  ObjectPtr big = MakeObject();
  for (int i = 0; i < state.range(0); ++i) {
    big->Set("k" + std::to_string(i), Value("v" + std::to_string(i)));
  }
  Value v(big);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tracker->DeepLabel(v).size());
  }
}
BENCHMARK(BM_DeepLabelObject)->Arg(10)->Arg(100)->Arg(1000);

// Boxing throughput (Track on value types).
void BM_TrackBoxing(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tracker->Track(Value(3.14)).IsObject());
  }
}
BENCHMARK(BM_TrackBoxing);

}  // namespace
}  // namespace turnstile

TURNSTILE_BENCHMARK_MAIN()
