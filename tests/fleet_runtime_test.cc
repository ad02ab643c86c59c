// Sharded fleet runtime: the differential gate. A FleetRuntime spreading
// corpus apps across worker shards must produce, for every instance,
// byte-identical io records, violations and canonical audit ledger to a
// single-threaded AppRuntime run with the same seed and message sequence —
// including instances that share a per-shard Policy, and instances fed by a
// cross-shard app→app wire. Runs under the TSAN CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/runtime/context.h"
#include "src/runtime/fleet.h"
#include "src/runtime/shard.h"

namespace turnstile {
namespace {

constexpr int kMessages = 5;
constexpr uint64_t kSeed = 977u;
constexpr size_t kEventCapacity = 1u << 16;

// The observable record of one instance, rendered exactly as
// runtime_isolation_test renders it.
struct Outcome {
  std::string status;
  std::string io;
  std::string violations;
  std::string audit;
};

Outcome Collect(AppRuntime& runtime, RuntimeContext& context) {
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
  out.audit = context.event_log().CanonicalLog();
  return out;
}

// Single-threaded reference: same enable-then-Create arrangement the fleet's
// shard threads use, driven sequentially on the caller's thread.
Outcome RunReference(const CorpusApp& app) {
  Outcome out;
  auto context = RuntimeContext::CreateIsolated();
  context->event_log().Enable(kEventCapacity);
  auto runtime = AppRuntime::Create(app, AppVersion::kSelective,
                                    ExecTier::kBytecode, context.get());
  if (!runtime.ok()) {
    out.status = app.name + ": " + runtime.status().ToString();
    return out;
  }
  Rng rng(kSeed);
  for (int seq = 0; seq < kMessages; ++seq) {
    Status status = (*runtime)->DriveMessage(&rng, seq);
    if (!status.ok()) {
      out.status = app.name + ": " + status.ToString();
      return out;
    }
  }
  return Collect(**runtime, *context);
}

std::vector<const CorpusApp*> ManagedApps() {
  std::vector<const CorpusApp*> picked;
  for (const CorpusApp& app : Corpus()) {
    if (app.bucket == CorpusBucket::kTurnstileOnly || app.bucket == CorpusBucket::kBothFind) {
      picked.push_back(&app);
    }
  }
  return picked;
}

FleetRuntime::Options TestOptions(int shards) {
  FleetRuntime::Options options;
  options.shards = shards;
  options.rng_seed = kSeed;
  options.event_capacity = kEventCapacity;
  return options;
}

TEST(FleetRuntimeTest, FleetMatchesSingleThreadedRuns) {
  std::vector<const CorpusApp*> apps = ManagedApps();
  ASSERT_GE(apps.size(), 6u) << "differential gate needs >= 6 managed corpus apps";
  apps.resize(6);

  FleetRuntime fleet(TestOptions(/*shards=*/3));
  ASSERT_GE(fleet.shard_count(), 2);

  std::vector<std::string> ids;
  for (const CorpusApp* app : apps) {
    ids.push_back(fleet.AddApp(*app));
  }
  // Two extra tenants of the first two apps: the same-app-under-sharing case,
  // landing on shards that already host (or don't host) their Policy.
  std::vector<const CorpusApp*> tenants = apps;
  ids.push_back(fleet.AddApp(*apps[0]));
  tenants.push_back(apps[0]);
  ids.push_back(fleet.AddApp(*apps[1]));
  tenants.push_back(apps[1]);

  Status started = fleet.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  for (int seq = 0; seq < kMessages; ++seq) {
    for (const std::string& id : ids) {
      ASSERT_TRUE(fleet.Post(id, seq));
    }
  }
  fleet.Drain();
  fleet.Stop();  // joins shard threads: instance state is safe to read
  EXPECT_EQ(fleet.errors(), std::vector<std::string>{});
  EXPECT_EQ(fleet.messages_processed(), ids.size() * kMessages);

  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(ids[i]);
    Outcome reference = RunReference(*tenants[i]);
    ASSERT_EQ(reference.status, "");
    AppRuntime* runtime = fleet.runtime_of(ids[i]);
    RuntimeContext* context = fleet.context_of(ids[i]);
    ASSERT_NE(runtime, nullptr);
    ASSERT_NE(context, nullptr);
    Outcome fleet_outcome = Collect(*runtime, *context);
    EXPECT_EQ(fleet_outcome.io, reference.io);
    EXPECT_EQ(fleet_outcome.violations, reference.violations);
    EXPECT_EQ(fleet_outcome.audit, reference.audit);
    EXPECT_NE(fleet_outcome.audit, "") << "managed apps must ledger decisions";
  }
}

TEST(FleetRuntimeTest, PerShardPolicySharingIsPointerEqualAndHarmless) {
  std::vector<const CorpusApp*> apps = ManagedApps();
  ASSERT_FALSE(apps.empty());
  const CorpusApp& app = *apps.front();

  FleetRuntime fleet(TestOptions(/*shards=*/1));
  std::string first = fleet.AddApp(app);
  std::string second = fleet.AddApp(app);
  ASSERT_TRUE(fleet.Start().ok());
  for (int seq = 0; seq < kMessages; ++seq) {
    ASSERT_TRUE(fleet.Post(first, seq));
    ASSERT_TRUE(fleet.Post(second, seq));
  }
  fleet.Drain();
  fleet.Stop();
  EXPECT_EQ(fleet.errors(), std::vector<std::string>{});

  AppRuntime* a = fleet.runtime_of(first);
  AppRuntime* b = fleet.runtime_of(second);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // One shard, one app: both tenants share the parsed Policy (and with it the
  // LabelSetPool + RuleGraph memo caches)...
  ASSERT_NE(a->policy(), nullptr);
  EXPECT_EQ(a->policy().get(), b->policy().get());
  // ...and sharing changes nothing observable: both match the (unshared)
  // single-threaded reference byte for byte.
  Outcome reference = RunReference(app);
  ASSERT_EQ(reference.status, "");
  Outcome first_outcome = Collect(*a, *fleet.context_of(first));
  Outcome second_outcome = Collect(*b, *fleet.context_of(second));
  EXPECT_EQ(first_outcome.audit, reference.audit);
  EXPECT_EQ(second_outcome.audit, reference.audit);
  EXPECT_EQ(first_outcome.io, reference.io);
  EXPECT_EQ(second_outcome.io, reference.io);
}

// Finds a managed (A, B) pair where A emits terminal sends (flow outputs)
// when driven — the precondition for a meaningful wire — and B has an entry
// point to deliver into.
std::pair<const CorpusApp*, const CorpusApp*> PickWiredPair(
    std::vector<Json>* captured_payloads) {
  std::vector<const CorpusApp*> apps = ManagedApps();
  const CorpusApp* source = nullptr;
  for (const CorpusApp* app : apps) {
    auto context = RuntimeContext::CreateIsolated();
    auto runtime = AppRuntime::Create(*app, AppVersion::kSelective,
                                      ExecTier::kBytecode, context.get());
    if (!runtime.ok()) {
      continue;
    }
    std::vector<Json> captured;
    (*runtime)->engine().set_terminal_sink(
        [&captured](const std::string&, const Value& msg, uint64_t) {
          captured.push_back(FleetSerializeMessage(msg));
        });
    Rng rng(kSeed);
    bool ok = true;
    for (int seq = 0; seq < kMessages && ok; ++seq) {
      ok = (*runtime)->DriveMessage(&rng, seq).ok();
    }
    if (ok && !captured.empty()) {
      source = app;
      *captured_payloads = std::move(captured);
      break;
    }
  }
  const CorpusApp* destination = nullptr;
  for (const CorpusApp* app : apps) {
    if (app != source && !app->entry_kind.empty()) {
      destination = app;
      break;
    }
  }
  return {source, destination};
}

TEST(FleetRuntimeTest, CrossShardWireMatchesSerializedReplay) {
  // Reference leg: capture app A's terminal sends through the fleet's own
  // serialization, then replay them into a fresh single-threaded B.
  std::vector<Json> payloads;
  auto [source, destination] = PickWiredPair(&payloads);
  ASSERT_NE(source, nullptr) << "no managed app produces terminal sends";
  ASSERT_NE(destination, nullptr);
  ASSERT_FALSE(payloads.empty());

  Outcome reference_b;
  {
    auto context = RuntimeContext::CreateIsolated();
    context->event_log().Enable(kEventCapacity);
    auto runtime =
        AppRuntime::Create(*destination, AppVersion::kSelective,
                           ExecTier::kBytecode, context.get());
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    for (const Json& payload : payloads) {
      ASSERT_TRUE((*runtime)->InjectValue(FleetMaterializeMessage(payload)).ok());
    }
    reference_b = Collect(**runtime, *context);
  }

  // Fleet leg: A pinned to shard 0, B to shard 1, wired. Only A is posted to;
  // everything B processes arrived over the cross-shard route.
  FleetRuntime fleet(TestOptions(/*shards=*/2));
  std::string a = fleet.AddApp(*source, /*shard=*/0);
  std::string b = fleet.AddApp(*destination, /*shard=*/1);
  ASSERT_TRUE(fleet.Wire(a, b).ok());
  ASSERT_TRUE(fleet.Start().ok());
  for (int seq = 0; seq < kMessages; ++seq) {
    ASSERT_TRUE(fleet.Post(a, seq));
  }
  fleet.Drain();
  fleet.Stop();
  EXPECT_EQ(fleet.errors(), std::vector<std::string>{});
  // Every captured terminal send became one routed delivery.
  EXPECT_EQ(fleet.messages_processed(),
            static_cast<uint64_t>(kMessages) + payloads.size());

  AppRuntime* routed = fleet.runtime_of(b);
  ASSERT_NE(routed, nullptr);
  Outcome fleet_b = Collect(*routed, *fleet.context_of(b));
  EXPECT_EQ(fleet_b.io, reference_b.io);
  EXPECT_EQ(fleet_b.violations, reference_b.violations);
  EXPECT_EQ(fleet_b.audit, reference_b.audit);

  // The wire must not perturb the source either.
  Outcome reference_a = RunReference(*source);
  Outcome fleet_a = Collect(*fleet.runtime_of(a), *fleet.context_of(a));
  EXPECT_EQ(fleet_a.io, reference_a.io);
  EXPECT_EQ(fleet_a.audit, reference_a.audit);
}

// A one-node Node-RED app whose input handler is `body` (it sees `msg` and
// `node`), under the placeholder-label policy the corpus uses.
CorpusApp OneNodeApp(const std::string& name, const std::string& body) {
  CorpusApp app;
  app.name = name;
  app.category = "test";
  app.bucket = CorpusBucket::kTurnstileOnly;
  app.source = "module.exports = function(RED) {\n"
               "  function TestNode(config) {\n"
               "    RED.nodes.createNode(this, config);\n"
               "    let node = this;\n"
               "    node.on(\"input\", msg => {\n" +
               body +
               "\n    });\n"
               "  }\n"
               "  RED.nodes.registerType(\"" + name + "\", TestNode);\n"
               "};\n";
  app.flow_json = R"([{ "id": "n1", "type": ")" + name + R"(", "wires": [] }])";
  app.entry_kind = "node";
  app.entry_ref = "n1";
  app.entry_event = "input";
  app.message_template = R"({ "payload": "$frame", "seq": "$seq" })";
  app.policy_json = R"json({
    "labellers": {
      "inputLabel": { "payload": {
        "$fn": "p => (String(p).includes(\"employee\") ? \"Alpha\" : \"Beta\")" } }
    },
    "rules": ["Alpha -> Beta", "Beta -> Gamma"],
    "injections": [{ "object": "msg", "labeller": "inputLabel" }]
  })json";
  return app;
}

TEST(FleetRuntimeTest, CyclicMessageOverAWireIsCutAtTheSerializeDepth) {
  const CorpusApp sender = OneNodeApp("cyclic-sender", "msg.self = msg; node.send(msg);");
  const CorpusApp probe = OneNodeApp(
      "cycle-probe",
      "let depth = 0; let m = msg;"
      "while (m.self !== null) { m = m.self; depth = depth + 1; }"
      "console.log(\"cut at \" + depth + \", seq \" + msg.seq + \" then \" + m.seq);");

  FleetRuntime fleet(TestOptions(/*shards=*/2));
  std::string a = fleet.AddApp(sender, /*shard=*/0);
  std::string b = fleet.AddApp(probe, /*shard=*/1);
  ASSERT_TRUE(fleet.Wire(a, b).ok());
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.Post(a, 0));
  fleet.Drain();
  fleet.Stop();
  EXPECT_EQ(fleet.errors(), std::vector<std::string>{});
  EXPECT_EQ(fleet.messages_processed(), 2u);

  // The delivered message is the cycle unrolled kMaxSerializeDepth times:
  // the fields of the last object, one level past the cap, are null.
  AppRuntime* routed = fleet.runtime_of(b);
  ASSERT_NE(routed, nullptr);
  const std::vector<IoRecord>& records = routed->interp().io_world().records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].channel, "console");
  EXPECT_EQ(records[0].payload,
            "cut at " + std::to_string(kMaxSerializeDepth) + ", seq 0 then null");
}

// The setup error AppRuntime::Create reports for `app` on the caller's thread.
std::string SetupError(const CorpusApp& app) {
  auto context = RuntimeContext::CreateIsolated();
  auto runtime = AppRuntime::Create(app, FleetRuntime::Options().version, ExecTier::kBytecode,
                                    context.get());
  return runtime.ok() ? "" : runtime.status().ToString();
}

// Shards build their instances concurrently, so shard 1 may finish (and
// fail) first; Start() and errors() must still report in shard order.
TEST(FleetRuntimeTest, SetupFailuresOnEveryShardAreReportedInShardOrder) {
  const CorpusApp broken_zero = OneNodeApp("broken-zero", "let = 1;");
  const CorpusApp broken_one = OneNodeApp("broken-one", "node.send(msg;");
  const CorpusApp echo = OneNodeApp("echo", "console.log(\"got \" + msg.seq);");
  const std::string error_zero = SetupError(broken_zero);
  const std::string error_one = SetupError(broken_one);
  ASSERT_NE(error_zero, "");
  ASSERT_NE(error_one, "");
  ASSERT_NE(error_zero, error_one);

  FleetRuntime fleet(TestOptions(/*shards=*/2));
  // Shard 1's failure is added first: shard order, not AddApp order, decides.
  std::string bad_one = fleet.AddApp(broken_one, /*shard=*/1);
  std::string good_zero = fleet.AddApp(echo, /*shard=*/0);
  std::string bad_zero = fleet.AddApp(broken_zero, /*shard=*/0);
  std::string good_one = fleet.AddApp(echo, /*shard=*/1);
  Status started = fleet.Start();
  EXPECT_EQ(started.ToString(), error_zero);
  EXPECT_EQ(fleet.errors(), (std::vector<std::string>{bad_zero + ": setup: " + error_zero,
                                                     bad_one + ": setup: " + error_one}));
  EXPECT_EQ(fleet.runtime_of(bad_zero), nullptr);
  EXPECT_EQ(fleet.runtime_of(bad_one), nullptr);

  // The surviving tenants on both shards process messages.
  ASSERT_TRUE(fleet.Post(good_zero, 0));
  ASSERT_TRUE(fleet.Post(good_one, 0));
  ASSERT_TRUE(fleet.Post(bad_one, 1));  // drains as a no-op
  fleet.Drain();
  fleet.Stop();
  EXPECT_EQ(fleet.messages_processed(), 3u);
  EXPECT_EQ(fleet.errors().size(), 2u);
  for (const std::string& id : {good_zero, good_one}) {
    AppRuntime* runtime = fleet.runtime_of(id);
    ASSERT_NE(runtime, nullptr) << id;
    const std::vector<IoRecord>& records = runtime->interp().io_world().records;
    ASSERT_EQ(records.size(), 1u) << id;
    EXPECT_EQ(records[0].payload, "got 0") << id;
  }
}

TEST(FleetRuntimeTest, MailboxBoundsExternalProducersAndDrainsOnClose) {
  ShardMailbox mailbox(/*capacity=*/2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      FleetEnvelope env;
      env.seq = i;
      if (mailbox.Push(std::move(env), /*bounded=*/true)) {
        pushed.fetch_add(1);
      }
    }
  });
  // Backpressure: with no consumer, the producer wedges at capacity.
  while (mailbox.depth() < 2) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(mailbox.depth(), 2u);
  EXPECT_LE(pushed.load(), 3);  // 2 queued + at most 1 in flight

  // A consumer drains in FIFO order and releases the producer.
  std::vector<FleetEnvelope> batch;
  int expected_seq = 0;
  while (expected_seq < 6) {
    ASSERT_TRUE(mailbox.PopAll(&batch));
    for (const FleetEnvelope& env : batch) {
      EXPECT_EQ(env.seq, expected_seq++);
    }
    batch.clear();
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 6);

  // Closed: pushes are rejected, the consumer wakes and terminates.
  mailbox.Close();
  FleetEnvelope env;
  EXPECT_FALSE(mailbox.Push(std::move(env), /*bounded=*/true));
  EXPECT_FALSE(mailbox.PopAll(&batch));
  EXPECT_TRUE(batch.empty());

  // An unbounded push ignores capacity entirely (the shard-origin path).
  ShardMailbox roomy(/*capacity=*/1);
  for (int i = 0; i < 4; ++i) {
    FleetEnvelope extra;
    EXPECT_TRUE(roomy.Push(std::move(extra), /*bounded=*/false));
  }
  EXPECT_EQ(roomy.depth(), 4u);
}

TEST(FleetRuntimeTest, ShardCountFallsBackToFourWhenNotPositive) {
  FleetRuntime::Options options;
  EXPECT_EQ(FleetRuntime(options).shard_count(), 4);
  options.shards = 0;
  EXPECT_EQ(FleetRuntime(options).shard_count(), 4);
  options.shards = 2;
  EXPECT_EQ(FleetRuntime(options).shard_count(), 2);
}

}  // namespace
}  // namespace turnstile
