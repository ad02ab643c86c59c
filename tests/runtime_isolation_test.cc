// Multi-instance isolation (ISSUE 7): N corpus apps run concurrently on N
// std::threads, each on its own isolated RuntimeContext, and nothing leaks
// between them — per-context metrics and event logs are disjoint, the
// violation set and the canonical audit log of every instance are
// byte-identical to a single-threaded run of the same app, and (under the
// TSAN CI job) the whole thing is data-race-free. This is the proof
// obligation of the RuntimeContext refactor: the enabling step for the
// sharded multi-tenant flow runtime.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/runtime/context.h"

namespace turnstile {
namespace {

constexpr int kMessages = 5;
constexpr size_t kInstances = 6;  // acceptance floor is >= 4 concurrent

// Everything one app instance observably produces, plus the runtime counters
// recorded in its context's private registry.
struct InstanceOutcome {
  std::string status;       // "" when every step succeeded
  std::string io;           // rendered io_world records
  std::string violations;   // rendered tracker violation reports
  std::string audit;        // canonical audit-ledger log
  uint64_t audit_recorded = 0;
  uint64_t flow_injects = 0;
  uint64_t dift_checks = 0;
  uint64_t macrotasks = 0;
};

// Runs `app` to completion on `context` and collects the outcome. The event
// log is enabled before the instance is built so module-load decisions are
// captured too — same arrangement as corpus_roundtrip_test, but against the
// context's own log instead of the global one.
InstanceOutcome RunInstance(const CorpusApp& app, RuntimeContext& context) {
  InstanceOutcome outcome;
  context.event_log().Enable(1u << 16);
  auto runtime = AppRuntime::Create(app, AppVersion::kSelective, ExecTier::kBytecode, &context);
  if (!runtime.ok()) {
    outcome.status = app.name + ": " + runtime.status().ToString();
    return outcome;
  }
  Rng rng(977u);
  for (int seq = 0; seq < kMessages; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, seq);
    if (!status.ok()) {
      outcome.status = app.name + ": " + status.ToString();
      return outcome;
    }
  }
  std::ostringstream io;
  for (const IoRecord& record : (*runtime)->interp().io_world().records) {
    io << record.channel << "|" << record.op << "|" << record.detail << "|" << record.payload
       << "\n";
  }
  outcome.io = io.str();
  if ((*runtime)->tracker() != nullptr) {
    std::ostringstream violations;
    for (const Violation& v : (*runtime)->tracker()->violations()) {
      violations << v.sink << " " << v.data_labels << " -> " << v.receiver_labels << "\n";
    }
    outcome.violations = violations.str();
  }
  outcome.audit = context.event_log().CanonicalLog();
  outcome.audit_recorded = context.event_log().decisions();
  outcome.flow_injects = context.metrics().GetCounter("flow.injects")->value();
  outcome.dift_checks = context.metrics().GetCounter("dift.checks")->value();
  outcome.macrotasks = context.metrics().GetCounter("interp.macrotasks_executed")->value();
  context.event_log().Disable();
  return outcome;
}

// The apps under test: Turnstile-managed corpus apps (they carry usable
// policies), round-robined up to kInstances.
std::vector<const CorpusApp*> PickApps() {
  std::vector<const CorpusApp*> picked;
  for (const CorpusApp& app : Corpus()) {
    if (app.bucket != CorpusBucket::kTurnstileOnly && app.bucket != CorpusBucket::kBothFind) {
      continue;
    }
    picked.push_back(&app);
    if (picked.size() == kInstances) {
      break;
    }
  }
  return picked;
}

TEST(RuntimeIsolationTest, ConcurrentInstancesMatchSingleThreadedRuns) {
  std::vector<const CorpusApp*> apps = PickApps();
  ASSERT_GE(apps.size(), 4u);

  // Single-threaded reference pass: one isolated context per app, run
  // sequentially. Isolated-vs-isolated keeps the comparison exact (trace ids
  // and ledger sequences start at 1 in both passes).
  std::vector<InstanceOutcome> reference(apps.size());
  for (size_t i = 0; i < apps.size(); ++i) {
    auto context = RuntimeContext::CreateIsolated();
    reference[i] = RunInstance(*apps[i], *context);
    ASSERT_EQ(reference[i].status, "") << "reference run failed";
    EXPECT_GT(reference[i].audit_recorded, 0u)
        << apps[i]->name << ": managed apps must produce audit events";
  }

  // Concurrent pass: every instance on its own thread + context.
  std::vector<InstanceOutcome> concurrent(apps.size());
  {
    std::vector<std::unique_ptr<RuntimeContext>> contexts;
    for (size_t i = 0; i < apps.size(); ++i) {
      contexts.push_back(RuntimeContext::CreateIsolated());
    }
    std::vector<std::thread> threads;
    threads.reserve(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
      threads.emplace_back([&, i] { concurrent[i] = RunInstance(*apps[i], *contexts[i]); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  for (size_t i = 0; i < apps.size(); ++i) {
    SCOPED_TRACE(apps[i]->name);
    ASSERT_EQ(concurrent[i].status, "");
    // Violations and the canonical audit log are byte-identical to the
    // single-threaded run: concurrency must not change a single monitor
    // decision, nor the order decisions are recorded in.
    EXPECT_EQ(concurrent[i].violations, reference[i].violations);
    EXPECT_EQ(concurrent[i].audit, reference[i].audit);
    EXPECT_EQ(concurrent[i].io, reference[i].io);
    // Disjoint metrics: each context's registry holds exactly the work of its
    // own instance — the same counts the sequential pass recorded.
    EXPECT_EQ(concurrent[i].audit_recorded, reference[i].audit_recorded);
    EXPECT_EQ(concurrent[i].flow_injects, reference[i].flow_injects);
    EXPECT_EQ(concurrent[i].dift_checks, reference[i].dift_checks);
    EXPECT_EQ(concurrent[i].macrotasks, reference[i].macrotasks);
  }
}

TEST(RuntimeIsolationTest, SameAppConcurrentlyInManyContextsStaysDisjoint) {
  // The sharding scenario: one popular app, many tenants. Every instance runs
  // the SAME app concurrently; each context must still end up with the
  // identical (not merely similar) per-instance record.
  std::vector<const CorpusApp*> apps = PickApps();
  ASSERT_FALSE(apps.empty());
  const CorpusApp& app = *apps.front();

  auto ref_context = RuntimeContext::CreateIsolated();
  InstanceOutcome reference = RunInstance(app, *ref_context);
  ASSERT_EQ(reference.status, "");

  std::vector<InstanceOutcome> concurrent(kInstances);
  {
    std::vector<std::unique_ptr<RuntimeContext>> contexts;
    for (size_t i = 0; i < kInstances; ++i) {
      contexts.push_back(RuntimeContext::CreateIsolated());
    }
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kInstances; ++i) {
      threads.emplace_back([&, i] { concurrent[i] = RunInstance(app, *contexts[i]); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  for (size_t i = 0; i < kInstances; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(concurrent[i].status, "");
    EXPECT_EQ(concurrent[i].audit, reference.audit);
    EXPECT_EQ(concurrent[i].violations, reference.violations);
    EXPECT_EQ(concurrent[i].flow_injects, reference.flow_injects);
  }
}

TEST(RuntimeIsolationTest, IsolatedContextsDoNotTouchTheDefaultRegistry) {
  // Runtime counters recorded by an isolated instance must not move the
  // default context's registry. (Static-phase metrics — parse/analysis
  // timings, vm.chunks_compiled — stay process-wide by design; runtime
  // counters are the isolation boundary.)
  obs::Metrics& global = RuntimeContext::Default().metrics();
  uint64_t injects_before = global.GetCounter("flow.injects")->value();
  uint64_t checks_before = global.GetCounter("dift.checks")->value();
  uint64_t audit_before = global.GetCounter(
      obs::MetricWithLabel("audit.events_total", "kind", "flow_check"))->value();

  std::vector<const CorpusApp*> apps = PickApps();
  ASSERT_FALSE(apps.empty());
  auto context = RuntimeContext::CreateIsolated();
  InstanceOutcome outcome = RunInstance(*apps.front(), *context);
  ASSERT_EQ(outcome.status, "");
  EXPECT_GT(outcome.flow_injects, 0u);

  EXPECT_EQ(global.GetCounter("flow.injects")->value(), injects_before);
  EXPECT_EQ(global.GetCounter("dift.checks")->value(), checks_before);
  EXPECT_EQ(global.GetCounter(
                obs::MetricWithLabel("audit.events_total", "kind", "flow_check"))->value(),
            audit_before);
}

TEST(RuntimeIsolationTest, DefaultContextWrapsTheProcessSingletons) {
  RuntimeContext& def = RuntimeContext::Default();
  EXPECT_TRUE(def.is_default());
  EXPECT_EQ(&def.metrics(), &obs::Metrics::Global());
  EXPECT_EQ(&def.event_log(), &obs::EventLog::Global());
  EXPECT_EQ(&def.profiler(), &obs::Profiler::Global());
  EXPECT_EQ(&def.atoms(), &AtomTable::Global());

  auto isolated = RuntimeContext::CreateIsolated();
  EXPECT_FALSE(isolated->is_default());
  EXPECT_NE(&isolated->metrics(), &def.metrics());
  EXPECT_NE(&isolated->event_log(), &def.event_log());
  EXPECT_NE(&isolated->profiler(), &def.profiler());
  // The atom table is shared by design: atoms are process-wide names.
  EXPECT_EQ(&isolated->atoms(), &def.atoms());
}

}  // namespace
}  // namespace turnstile
