// Corpus integrity: population structure, per-bucket analyzer outcomes
// (§6.1's buckets emerge from running the real analyzers on every app), and
// runnability of every application in all three versions.
#include "src/corpus/corpus.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "src/analysis/analyzer.h"
#include "src/baseline/querydl.h"
#include "src/corpus/driver.h"
#include "src/lang/parser.h"

namespace turnstile {
namespace {

TEST(CorpusTest, SixtyOneAppsWithUniqueNames) {
  const auto& apps = Corpus();
  EXPECT_EQ(apps.size(), 61u);
  std::set<std::string> names;
  for (const CorpusApp& app : apps) {
    EXPECT_TRUE(names.insert(app.name).second) << "duplicate name " << app.name;
  }
}

TEST(CorpusTest, BucketSizesMatchThePaper) {
  std::map<CorpusBucket, int> counts;
  for (const CorpusApp& app : Corpus()) {
    ++counts[app.bucket];
  }
  EXPECT_EQ(counts[CorpusBucket::kTurnstileOnly], 22);
  EXPECT_EQ(counts[CorpusBucket::kBothFind], 5);
  EXPECT_EQ(counts[CorpusBucket::kQueryDlOnly], 2);
  EXPECT_EQ(counts[CorpusBucket::kBothMiss], 26);
  EXPECT_EQ(counts[CorpusBucket::kNoPaths], 6);
}

TEST(CorpusTest, EveryAppParsesAndHasValidMetadata) {
  for (const CorpusApp& app : Corpus()) {
    auto program = ParseProgram(app.source, app.name + ".js");
    EXPECT_TRUE(program.ok()) << app.name << ": " << program.status().ToString();
    EXPECT_TRUE(Json::Parse(app.flow_json).ok()) << app.name;
    EXPECT_TRUE(Json::Parse(app.message_template).ok()) << app.name;
    auto policy = Policy::FromJsonText(app.policy_json);
    EXPECT_TRUE(policy.ok()) << app.name << ": " << policy.status().ToString();
    EXPECT_GE(app.ground_truth_paths, 0);
    EXPECT_FALSE(app.notes.empty()) << app.name;
  }
}

TEST(CorpusTest, NoAppNestsNearTheParseCap) {
  // Wrapped in half the cap's worth of blocks, every app and every package
  // (the vendored bundle plus the app, as deploy analyzes it) still parses:
  // its own nesting, chains included, stays below kMaxParseNesting / 2.
  const int wrap = kMaxParseNesting / 2;
  const std::string vendor = VendoredDependencyBundle(400);
  for (const CorpusApp& app : Corpus()) {
    for (const std::string& source : {app.source, vendor + app.source}) {
      std::string wrapped;
      for (int i = 0; i < wrap; ++i) {
        wrapped += "{";
      }
      wrapped += source;
      for (int i = 0; i < wrap; ++i) {
        wrapped += "}";
      }
      auto program = ParseProgram(wrapped, app.name + ".js");
      EXPECT_TRUE(program.ok()) << app.name << ": " << program.status().ToString();
    }
  }
}

TEST(CorpusTest, FindCorpusApp) {
  EXPECT_NE(FindCorpusApp("nlp.js"), nullptr);
  EXPECT_NE(FindCorpusApp("modbus"), nullptr);
  EXPECT_EQ(FindCorpusApp("no-such-app"), nullptr);
}

// The §6.1 bucket semantics must hold under the *measured* analyzers.
TEST(CorpusTest, BucketOutcomesAreMeasuredNotAsserted) {
  for (const CorpusApp& app : Corpus()) {
    auto program = ParseProgram(app.source, app.name + ".js");
    ASSERT_TRUE(program.ok()) << app.name;
    auto turnstile_result = AnalyzeProgram(*program);
    auto querydl_result = QueryDlAnalyze(*program);
    ASSERT_TRUE(turnstile_result.ok()) << app.name;
    ASSERT_TRUE(querydl_result.ok()) << app.name;
    size_t t = turnstile_result->paths.size();
    size_t q = querydl_result->paths.size();
    switch (app.bucket) {
      case CorpusBucket::kTurnstileOnly:
        EXPECT_GT(t, 0u) << app.name;
        EXPECT_EQ(q, 0u) << app.name;
        break;
      case CorpusBucket::kBothFind:
        EXPECT_GT(t, 0u) << app.name;
        EXPECT_GT(q, 0u) << app.name;
        break;
      case CorpusBucket::kQueryDlOnly:
        EXPECT_EQ(t, 0u) << app.name;
        EXPECT_GT(q, 0u) << app.name;
        break;
      case CorpusBucket::kBothMiss:
        EXPECT_EQ(t, 0u) << app.name;
        EXPECT_EQ(q, 0u) << app.name;
        EXPECT_GT(app.ground_truth_paths, 0) << app.name;
        break;
      case CorpusBucket::kNoPaths:
        EXPECT_EQ(t, 0u) << app.name;
        EXPECT_EQ(q, 0u) << app.name;
        EXPECT_EQ(app.ground_truth_paths, 0) << app.name;
        break;
    }
    // Neither tool reports more paths than the manual annotation.
    EXPECT_LE(t, static_cast<size_t>(app.ground_truth_paths)) << app.name;
    EXPECT_LE(q, static_cast<size_t>(app.ground_truth_paths)) << app.name;
  }
}

TEST(CorpusTest, HeadlineNumbersLandInTheReportedShape) {
  int gt = 0;
  int t_total = 0;
  int q_total = 0;
  int t_positive = 0;
  for (const CorpusApp& app : Corpus()) {
    auto program = ParseProgram(app.source, app.name + ".js");
    ASSERT_TRUE(program.ok());
    auto t = AnalyzeProgram(*program);
    auto q = QueryDlAnalyze(*program);
    ASSERT_TRUE(t.ok() && q.ok());
    gt += app.ground_truth_paths;
    t_total += static_cast<int>(t->paths.size());
    q_total += static_cast<int>(q->paths.size());
    if (!t->paths.empty()) {
      ++t_positive;
    }
  }
  EXPECT_EQ(t_positive, 27);             // the paper's Part-2 population
  EXPECT_GE(t_total, 3 * q_total);       // "3× more privacy-sensitive dataflows"
  EXPECT_GT(t_total, gt / 2);            // Turnstile covers most of ground truth
  EXPECT_LT(q_total, gt / 4);            // QueryDL covers a small fraction
}

// Every app must be runnable in all three §6.2 versions.
struct RunCase {
  const char* version_name;
  AppVersion version;
};

// Print the name, not the raw bytes: those hold a load-address-dependent
// pointer and would make the discovered test names unstable.
void PrintTo(const RunCase& c, std::ostream* os) { *os << c.version_name; }

class CorpusRunTest : public ::testing::TestWithParam<RunCase> {};

TEST_P(CorpusRunTest, AllAppsRunTenMessages) {
  for (const CorpusApp& app : Corpus()) {
    auto runtime = AppRuntime::Create(app, GetParam().version);
    ASSERT_TRUE(runtime.ok()) << app.name << ": " << runtime.status().ToString();
    Rng rng(2026);
    for (int seq = 0; seq < 10; ++seq) {
      Status status = (*runtime)->DriveMessage(&rng, seq);
      ASSERT_TRUE(status.ok()) << app.name << " msg " << seq << ": " << status.ToString();
    }
    EXPECT_GT((*runtime)->eval_count(), 0u) << app.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, CorpusRunTest,
                         ::testing::Values(RunCase{"original", AppVersion::kOriginal},
                                           RunCase{"selective", AppVersion::kSelective},
                                           RunCase{"exhaustive", AppVersion::kExhaustive}),
                         [](const ::testing::TestParamInfo<RunCase>& tpi) {
                           return tpi.param.version_name;
                         });

TEST(CorpusRunTest, ManagedVersionsProduceSameSinkTrafficAsOriginal) {
  // The §6.2 placeholder policies are violation-free, and the tracker runs in
  // report mode — so managed runs must emit exactly the same I/O records.
  for (const char* name : {"camera-motion", "modbus", "nlp.js", "dispatch-hub"}) {
    const CorpusApp* app = FindCorpusApp(name);
    ASSERT_NE(app, nullptr);
    std::map<AppVersion, std::vector<std::string>> payloads;
    for (AppVersion version :
         {AppVersion::kOriginal, AppVersion::kSelective, AppVersion::kExhaustive}) {
      auto runtime = AppRuntime::Create(*app, version);
      ASSERT_TRUE(runtime.ok()) << name << ": " << runtime.status().ToString();
      Rng rng(7);
      for (int seq = 0; seq < 5; ++seq) {
        ASSERT_TRUE((*runtime)->DriveMessage(&rng, seq).ok()) << name;
      }
      for (const IoRecord& record : (*runtime)->interp().io_world().records) {
        payloads[version].push_back(record.channel + "|" + record.detail + "|" +
                                    record.payload);
      }
    }
    EXPECT_EQ(payloads[AppVersion::kOriginal], payloads[AppVersion::kSelective]) << name;
    EXPECT_EQ(payloads[AppVersion::kOriginal], payloads[AppVersion::kExhaustive]) << name;
  }
}

// --- Table 2 census substrate ---------------------------------------------------

TEST(CensusTest, PopulationTotalsMatchTable2) {
  auto repos = GenerateCensusPopulation(42);
  EXPECT_EQ(repos.size(), 1149u);
  std::map<std::string, int> by_framework;
  for (const CensusRepo& repo : repos) {
    ++by_framework[repo.true_framework];
  }
  EXPECT_EQ(by_framework["Node-RED"], 677);
  EXPECT_EQ(by_framework["Azure IoT"], 357);
  EXPECT_EQ(by_framework["HomeBridge"], 57);
  EXPECT_EQ(by_framework["OpenHAB"], 14);
  EXPECT_EQ(by_framework["SmartThings"], 29);
  EXPECT_EQ(by_framework["AWS Greengrass"], 15);
}

TEST(CensusTest, DetectorClassifiesEveryGeneratedRepo) {
  auto repos = GenerateCensusPopulation(7);
  for (const CensusRepo& repo : repos) {
    EXPECT_EQ(DetectFramework(repo.main_source_excerpt), repo.true_framework) << repo.name;
  }
}

TEST(CensusTest, DetectorIgnoresUnrelatedSources) {
  EXPECT_EQ(DetectFramework("let x = require('express'); x();"), "");
  EXPECT_EQ(DetectFramework(""), "");
}

TEST(CensusTest, GenerationIsDeterministicPerSeed) {
  auto a = GenerateCensusPopulation(5);
  auto b = GenerateCensusPopulation(5);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].name, b[0].name);
  EXPECT_EQ(a[100].main_source_excerpt, b[100].main_source_excerpt);
}

}  // namespace
}  // namespace turnstile
