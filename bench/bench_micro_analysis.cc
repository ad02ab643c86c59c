// Microbenchmarks and ablations for the static pipeline (google-benchmark):
//   - Turnstile analyzer vs QueryDL on the same programs, by program size —
//     the architectural speed gap of §6.1 at micro scale
//   - instrumentation cost (selective vs exhaustive rewriting)
//   - injected-call-count ablation: how much work selective instrumentation
//     avoids (reported as counters)
//   - the front end on deploy's package: lexing (tokens/s) and lex + parse
//     (AST nodes/s); and the analysis of that package (graph nodes/s)
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "src/analysis/analyzer.h"
#include "src/baseline/querydl.h"
#include "src/corpus/corpus.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace turnstile {
namespace {

void BM_TurnstileAnalyze(benchmark::State& state) {
  auto program = ParseProgram(SyntheticHandlerProgram(static_cast<int>(state.range(0))));
  if (!program.ok()) {
    std::abort();
  }
  for (auto _ : state) {
    auto result = AnalyzeProgram(*program);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetLabel(std::to_string(program->node_count) + " ast nodes");
}
BENCHMARK(BM_TurnstileAnalyze)->Arg(2)->Arg(8)->Arg(32)->Arg(96);

void BM_QueryDlAnalyze(benchmark::State& state) {
  auto program = ParseProgram(SyntheticHandlerProgram(static_cast<int>(state.range(0))));
  if (!program.ok()) {
    std::abort();
  }
  for (auto _ : state) {
    auto result = QueryDlAnalyze(*program);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetLabel(std::to_string(program->node_count) + " ast nodes");
}
BENCHMARK(BM_QueryDlAnalyze)->Arg(2)->Arg(8)->Arg(32)->Arg(96);

void BM_ParseProgram(benchmark::State& state) {
  std::string source = SyntheticHandlerProgram(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto program = ParseProgram(source);
    benchmark::DoNotOptimize(program.ok());
  }
}
BENCHMARK(BM_ParseProgram)->Arg(8)->Arg(96);

// Deploy's package shape (§6.1): the vendored dependency bundle plus one app.
std::string DeployPackage() {
  const CorpusApp* app = FindCorpusApp("camera-motion");
  if (app == nullptr) {
    std::abort();
  }
  return VendoredDependencyBundle(400) + app->source;
}

// items/s is tokens/s.
void BM_LexPackage(benchmark::State& state) {
  const std::string source = DeployPackage();
  size_t tokens = 0;
  for (auto _ : state) {
    auto lexed = Lex(source);
    tokens = lexed.ok() ? lexed->size() : 0;
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tokens));
  state.SetLabel(std::to_string(tokens) + " tokens, " + std::to_string(source.size()) + " bytes");
}
BENCHMARK(BM_LexPackage);

// Lex plus parse; items/s is AST nodes/s.
void BM_ParsePackage(benchmark::State& state) {
  const std::string source = DeployPackage();
  int nodes = 0;
  for (auto _ : state) {
    auto program = ParseProgram(source);
    nodes = program.ok() ? program->node_count : 0;
    benchmark::DoNotOptimize(nodes);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.SetLabel(std::to_string(nodes) + " ast nodes");
}
BENCHMARK(BM_ParsePackage);

// Turnstile's analysis of deploy's package; items/s is graph nodes/s.
void BM_AnalyzePackage(benchmark::State& state) {
  auto program = ParseProgram(DeployPackage());
  if (!program.ok()) {
    std::abort();
  }
  int nodes = 0;
  for (auto _ : state) {
    auto result = AnalyzeProgram(*program);
    nodes = result.ok() ? result->stats.graph_nodes : 0;
    benchmark::DoNotOptimize(nodes);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.SetLabel(std::to_string(nodes) + " graph nodes");
}
BENCHMARK(BM_AnalyzePackage);

struct InstrumentFixture {
  Program program;
  std::unique_ptr<Policy> policy;
  AnalysisResult analysis;

  explicit InstrumentFixture(int n) {
    auto parsed = ParseProgram(SyntheticHandlerProgram(n));
    auto parsed_policy =
        Policy::FromJsonText(R"json({"labellers": {}, "rules": ["A -> B"]})json");
    auto analyzed = parsed.ok() ? AnalyzeProgram(*parsed) : ParseError("x");
    if (!parsed.ok() || !parsed_policy.ok() || !analyzed.ok()) {
      std::abort();
    }
    program = std::move(parsed).value();
    policy = std::move(parsed_policy).value();
    analysis = std::move(analyzed).value();
  }
};

void BM_InstrumentSelective(benchmark::State& state) {
  InstrumentFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = InstrumentProgram(f.program, *f.policy, InstrumentMode::kSelective,
                                    &f.analysis);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_InstrumentSelective)->Arg(8)->Arg(32);

void BM_InstrumentExhaustive(benchmark::State& state) {
  InstrumentFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = InstrumentProgram(f.program, *f.policy, InstrumentMode::kExhaustive,
                                    &f.analysis);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_InstrumentExhaustive)->Arg(8)->Arg(32);

// Ablation: injected tracker-call counts per corpus app, selective vs
// exhaustive. Reported as counters on a single-iteration benchmark so it
// appears in the standard bench output.
void BM_AblationInjectedCalls(benchmark::State& state) {
  int64_t selective_calls = 0;
  int64_t exhaustive_calls = 0;
  int64_t apps = 0;
  for (auto _ : state) {
    selective_calls = exhaustive_calls = apps = 0;
    for (const CorpusApp& app : Corpus()) {
      if (app.bucket != CorpusBucket::kTurnstileOnly &&
          app.bucket != CorpusBucket::kBothFind) {
        continue;
      }
      auto program = ParseProgram(app.source, app.name + ".js");
      auto policy = Policy::FromJsonText(app.policy_json);
      auto analysis = program.ok() ? AnalyzeProgram(*program) : ParseError("x");
      if (!program.ok() || !policy.ok() || !analysis.ok()) {
        std::abort();
      }
      auto selective = InstrumentProgram(*program, **policy, InstrumentMode::kSelective,
                                         &*analysis);
      auto exhaustive = InstrumentProgram(*program, **policy, InstrumentMode::kExhaustive,
                                          &*analysis);
      if (!selective.ok() || !exhaustive.ok()) {
        std::abort();
      }
      auto total = [](const InstrumentStats& s) {
        return s.binary_ops_wrapped + s.invokes_wrapped + s.labels_injected +
               s.tracks_injected;
      };
      selective_calls += total(selective->stats);
      exhaustive_calls += total(exhaustive->stats);
      ++apps;
    }
  }
  state.counters["apps"] = static_cast<double>(apps);
  state.counters["selective_calls"] = static_cast<double>(selective_calls);
  state.counters["exhaustive_calls"] = static_cast<double>(exhaustive_calls);
  state.counters["reduction"] =
      1.0 - static_cast<double>(selective_calls) / static_cast<double>(exhaustive_calls);
}
BENCHMARK(BM_AblationInjectedCalls)->Iterations(1);

}  // namespace
}  // namespace turnstile

TURNSTILE_BENCHMARK_MAIN()
