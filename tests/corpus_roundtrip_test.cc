// Corpus-wide structural properties:
//   - every app's source survives Parse -> Print -> Parse structurally
//     (printer fidelity on real-world-shaped programs),
//   - both analyzers are deterministic across repeated runs,
//   - instrumentation of every Part-2 app is idempotent in its statistics,
//   - every version of every app behaves the same under all three tiers.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/baseline/querydl.h"
#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/obs/event_log.h"

namespace turnstile {
namespace {

bool TreesEqual(const NodePtr& a, const NodePtr& b) {
  if (a->kind != b->kind || a->str != b->str || a->num != b->num ||
      a->children.size() != b->children.size()) {
    return false;
  }
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!TreesEqual(a->children[i], b->children[i])) {
      return false;
    }
  }
  return true;
}

TEST(CorpusRoundTripTest, EveryAppSourceRoundTripsThroughThePrinter) {
  for (const CorpusApp& app : Corpus()) {
    auto first = ParseProgram(app.source, app.name + ".js");
    ASSERT_TRUE(first.ok()) << app.name;
    std::string printed = PrintProgram(*first);
    auto second = ParseProgram(printed, app.name + ".reprinted.js");
    ASSERT_TRUE(second.ok()) << app.name << ":\n" << printed;
    EXPECT_TRUE(TreesEqual(first->root, second->root)) << app.name;
    // Fixed point: printing again is byte-identical.
    EXPECT_EQ(printed, PrintProgram(*second)) << app.name;
  }
}

// The instrumented programs print and re-parse the same way: every corpus
// app's selective and exhaustive trees print to source that parses back to
// the same tree, and printing that tree again gives the same text.
TEST(CorpusRoundTripTest, EveryInstrumentedProgramRoundTripsThroughThePrinter) {
  for (const CorpusApp& app : Corpus()) {
    auto program = ParseProgram(app.source, app.name + ".js");
    auto policy = Policy::FromJsonText(app.policy_json);
    ASSERT_TRUE(program.ok() && policy.ok()) << app.name;
    for (InstrumentMode mode : {InstrumentMode::kSelective, InstrumentMode::kExhaustive}) {
      auto analysis = AnalyzeProgram(*program);
      ASSERT_TRUE(analysis.ok()) << app.name;
      auto instrumented = InstrumentProgram(*program, **policy, mode, &*analysis);
      ASSERT_TRUE(instrumented.ok()) << app.name;
      std::string printed = PrintProgram(instrumented->program);
      auto reparsed = ParseProgram(printed, app.name + ".printed.js");
      ASSERT_TRUE(reparsed.ok()) << app.name << ": " << reparsed.status().ToString();
      EXPECT_TRUE(TreesEqual(instrumented->program.root, reparsed->root)) << app.name;
      EXPECT_EQ(printed, PrintProgram(*reparsed)) << app.name;
    }
  }
}

std::string Repeat(std::string_view unit, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += unit;
  }
  return out;
}

// camera-motion with `let deep = <expression>;` spliced into its input
// handler, ahead of the send.
CorpusApp WithStatement(const std::string& name, const std::string& expression) {
  const CorpusApp* base = FindCorpusApp("camera-motion");
  EXPECT_NE(base, nullptr);
  CorpusApp app = *base;
  app.name = name;
  const std::string anchor = "node.send(msg);";
  const size_t at = app.source.find(anchor);
  EXPECT_NE(at, std::string::npos);
  app.source.insert(at, "let deep = " + expression + ";\n      ");
  return app;
}

// A 500-level prefix or conditional chain nests 500 levels deep however it is
// written, so its printed form must not nest deeper than its source: the
// re-parse of kRoundTrip has the same kMaxParseNesting budget.
TEST(CorpusRoundTripTest, FiveHundredLevelChainsDeployUnderEveryVersion) {
  constexpr int kLevels = 500;
  const std::pair<const char*, std::string> kChains[] = {
      {"not", Repeat("!", kLevels) + "msg"},
      {"minus", Repeat("- ", kLevels) + "1"},
      {"plus-minus", Repeat("+ -", kLevels / 2) + "1"},
      {"ternary-then", Repeat("msg ? ", kLevels) + "1" + Repeat(" : 0", kLevels)},
      {"ternary-else", Repeat("msg ? 0 : ", kLevels) + "1"},
  };
  for (const auto& [name, chain] : kChains) {
    const CorpusApp app = WithStatement(name, chain);
    for (AppVersion version : {AppVersion::kOriginal, AppVersion::kSelective,
                               AppVersion::kExhaustive, AppVersion::kRoundTrip}) {
      auto runtime = AppRuntime::Create(app, version);
      ASSERT_TRUE(runtime.ok()) << name << " [" << static_cast<int>(version)
                                << "]: " << runtime.status().ToString();
      Rng rng(977u);
      EXPECT_TRUE((*runtime)->DriveMessage(&rng, 0).ok()) << name;
    }
  }
}

TEST(CorpusRoundTripTest, AnalyzersAreDeterministic) {
  for (const CorpusApp& app : Corpus()) {
    auto program = ParseProgram(app.source, app.name + ".js");
    ASSERT_TRUE(program.ok());
    auto t1 = AnalyzeProgram(*program);
    auto t2 = AnalyzeProgram(*program);
    ASSERT_TRUE(t1.ok() && t2.ok()) << app.name;
    ASSERT_EQ(t1->paths.size(), t2->paths.size()) << app.name;
    for (size_t i = 0; i < t1->paths.size(); ++i) {
      EXPECT_EQ(t1->paths[i].source_ast, t2->paths[i].source_ast) << app.name;
      EXPECT_EQ(t1->paths[i].sink_ast, t2->paths[i].sink_ast) << app.name;
    }
    EXPECT_EQ(t1->sensitive_ast_nodes, t2->sensitive_ast_nodes) << app.name;

    auto q1 = QueryDlAnalyze(*program);
    auto q2 = QueryDlAnalyze(*program);
    ASSERT_TRUE(q1.ok() && q2.ok()) << app.name;
    EXPECT_EQ(q1->paths.size(), q2->paths.size()) << app.name;
  }
}

TEST(CorpusRoundTripTest, AnalysisIsStableUnderReprinting) {
  // Detection results must not depend on formatting: analyzing the reprinted
  // source finds the same number of paths.
  for (const CorpusApp& app : Corpus()) {
    auto original = ParseProgram(app.source, app.name + ".js");
    ASSERT_TRUE(original.ok());
    auto reprinted = ParseProgram(PrintProgram(*original), app.name + ".js");
    ASSERT_TRUE(reprinted.ok());
    auto before = AnalyzeProgram(*original);
    auto after = AnalyzeProgram(*reprinted);
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_EQ(before->paths.size(), after->paths.size()) << app.name;
  }
}

TEST(CorpusRoundTripTest, RoundTrippedInstrumentationPreservesBehaviourOnEveryApp) {
  // The deployment invariant, extended to a version x tier matrix: every
  // version of every corpus app produces the same sink traffic, violation set
  // and monitor decisions under all three execution tiers, and instrument ->
  // print -> re-parse -> re-resolve -> (compile ->) run matches running the
  // in-memory instrumented tree. This matrix is the corpus-wide coverage of
  // the two oracle tiers.
  struct Row {
    AppVersion version;
    AppVersion baseline;  // the row whose cells this row must reproduce
    const char* name;
  };
  constexpr Row kRows[] = {
      {AppVersion::kOriginal, AppVersion::kOriginal, "original"},
      {AppVersion::kSelective, AppVersion::kSelective, "selective"},
      {AppVersion::kRoundTrip, AppVersion::kSelective, "roundtrip"},
      {AppVersion::kExhaustive, AppVersion::kExhaustive, "exhaustive"},
  };
  struct Tier {
    ExecTier tier;
    const char* name;
  };
  constexpr Tier kTiers[] = {
      {ExecTier::kTreeWalk, "treewalk"},
      {ExecTier::kBytecode, "bytecode-fused"},
      {ExecTier::kBytecodeLowered, "bytecode-lowered"},
  };
  obs::EventLog& log = obs::EventLog::Global();
  for (const CorpusApp& app : Corpus()) {
    std::map<AppVersion, std::vector<std::string>> baselines;
    for (const Row& row : kRows) {
      for (const Tier& tier : kTiers) {
        const std::string cell = std::string(row.name) + "/" + tier.name;
        // Fresh per-cell enable: resets the log sequence and trace numbering,
        // so each cell's canonical decisions — every monitor decision in
        // order — are directly comparable.
        log.Disable();
        log.Enable(1u << 16);
        auto runtime = AppRuntime::Create(app, row.version, tier.tier);
        ASSERT_TRUE(runtime.ok()) << app.name << " [" << cell
                                  << "]: " << runtime.status().ToString();
        Rng rng(977u);
        for (int seq = 0; seq < 3; ++seq) {
          ASSERT_TRUE((*runtime)->DriveMessage(&rng, seq).ok()) << app.name << " [" << cell
                                                                << "]";
        }
        std::vector<std::string> summary;
        for (const IoRecord& record : (*runtime)->interp().io_world().records) {
          summary.push_back(record.channel + "|" + record.op + "|" + record.detail + "|" +
                            record.payload);
        }
        if ((*runtime)->tracker() != nullptr) {  // kOriginal runs no monitor
          for (const Violation& violation : (*runtime)->tracker()->violations()) {
            summary.push_back("violation|" + violation.sink + "|" + violation.data_labels +
                              "|" + violation.receiver_labels);
          }
        }
        for (const obs::Event& event : log.Decisions()) {
          summary.push_back("audit|" + event.Canonical());
        }
        EXPECT_EQ(log.dropped(), 0u) << app.name << " [" << cell << "]";
        log.Disable();
        auto [baseline, first] = baselines.try_emplace(row.baseline, summary);
        if (!first) {
          EXPECT_EQ(baseline->second, summary) << app.name << " [" << cell << "]";
        }
      }
    }
  }
}

TEST(CorpusRoundTripTest, InstrumentationStatsAreDeterministic) {
  for (const CorpusApp& app : Corpus()) {
    if (app.bucket != CorpusBucket::kTurnstileOnly && app.bucket != CorpusBucket::kBothFind) {
      continue;
    }
    auto program = ParseProgram(app.source, app.name + ".js");
    auto policy = Policy::FromJsonText(app.policy_json);
    auto analysis = AnalyzeProgram(*program);
    ASSERT_TRUE(program.ok() && policy.ok() && analysis.ok()) << app.name;
    auto a = InstrumentProgram(*program, **policy, InstrumentMode::kSelective, &*analysis);
    auto b = InstrumentProgram(*program, **policy, InstrumentMode::kSelective, &*analysis);
    ASSERT_TRUE(a.ok() && b.ok()) << app.name;
    EXPECT_EQ(a->stats.binary_ops_wrapped, b->stats.binary_ops_wrapped) << app.name;
    EXPECT_EQ(a->stats.invokes_wrapped, b->stats.invokes_wrapped) << app.name;
    EXPECT_EQ(a->stats.labels_injected, b->stats.labels_injected) << app.name;
    EXPECT_EQ(a->program.node_count, b->program.node_count) << app.name;
    // Selective never injects more than exhaustive.
    auto exhaustive =
        InstrumentProgram(*program, **policy, InstrumentMode::kExhaustive, &*analysis);
    ASSERT_TRUE(exhaustive.ok());
    EXPECT_LE(a->stats.binary_ops_wrapped, exhaustive->stats.binary_ops_wrapped) << app.name;
    EXPECT_LE(a->stats.invokes_wrapped, exhaustive->stats.invokes_wrapped) << app.name;
  }
}

}  // namespace
}  // namespace turnstile
