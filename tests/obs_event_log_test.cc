// The per-context event log: the always-on trace context, journey recording
// for a wired flow, ring/spill/drop semantics, stamping, canonical decision
// rendering, env configuration, metrics exposition (including Prometheus
// label-value escaping of app names), the tracker/engine emit sites that feed
// it, and the profiler aggregating without switching recording on.
#include "src/obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/dift/tracker.h"
#include "src/flow/engine.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/telemetry.h"

namespace turnstile {
namespace obs {
namespace {

Atom AtomOf(const std::string& name) { return AtomTable::Global().Intern(name); }

Event MakeEvent(EventKind kind, const std::string& subject) {
  Event event;
  event.kind = kind;
  event.subject = subject;
  return event;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The flow engine, interpreter and tracker report into the global log, so
// every test starts and finishes with it disabled; tests compose in any order.
class EventLogFixture : public ::testing::Test {
 protected:
  void SetUp() override { EventLog::Global().Disable(); }
  void TearDown() override {
    EventLog::Global().set_app("");
    EventLog::Global().Disable();
  }
};

class TraceTest : public EventLogFixture {};
class AuditLedgerTest : public EventLogFixture {};
class EventLogTest : public EventLogFixture {};

// --- trace context and journey ----------------------------------------------

TEST_F(TraceTest, DisabledRecorderIsANoOp) {
  EventLog& log = EventLog::Global();
  ASSERT_FALSE(log.enabled());
  // The trace context works while recording is off ...
  TraceContext trace = log.StartTrace(AtomOf("n1"));
  EXPECT_EQ(trace.id, 1u);
  EXPECT_EQ(log.current_trace(), 1u);
  // ... but nothing is buffered.
  log.Record(EventKind::kNodeEnter, "n1");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST_F(TraceTest, RecordsAndFiltersByTrace) {
  EventLog& log = EventLog::Global();
  log.Enable(16);
  TraceContext first = log.StartTrace(AtomOf("a"));
  log.Record(EventKind::kNodeEnter, "a");
  TraceContext second = log.StartTrace(AtomOf("b"));
  log.Record(EventKind::kNodeEnter, "b");
  EXPECT_NE(first.id, 0u);
  EXPECT_NE(second.id, first.id);
  EXPECT_EQ(first.origin, AtomOf("a"));
  EXPECT_EQ(second.origin, AtomOf("b"));
  // Each trace: its kInject plus one kNodeEnter, both naming the origin.
  std::vector<Event> events = log.EventsForTrace(first.id);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kInject);
  EXPECT_EQ(events[1].kind, EventKind::kNodeEnter);
  EXPECT_EQ(events[1].node, AtomOf("a"));
  EXPECT_EQ(log.traces_started(), 2u);
}

TEST_F(TraceTest, RingBufferEvictsOldest) {
  EventLog& log = EventLog::Global();
  log.Enable(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(EventKind::kLoopTurn, "turn" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().subject, "turn6");  // oldest surviving
  EXPECT_EQ(events.back().subject, "turn9");
  // Sequence numbers stay monotonic across eviction.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST_F(TraceTest, RingWrapAroundDropsEventsButKeepsOrigins) {
  // The ring evicts oldest-first across ALL traces, so a long-lived trace can
  // lose its head (including its kInject) while newer traces stay complete.
  // EventsForTrace answers with whatever survives — partial is not an error.
  EventLog& log = EventLog::Global();
  log.Enable(4);
  uint64_t old_trace = log.StartTrace(AtomOf("old-origin")).id;
  log.Record(EventKind::kNodeEnter, "old-node");
  uint64_t new_trace = log.StartTrace(AtomOf("new-origin")).id;
  log.Record(EventKind::kNodeEnter, "new-a");
  log.Record(EventKind::kNodeEnter, "new-b");
  // Ring now holds the 4 most recent events; old_trace's kInject (event #1)
  // was evicted, its kNodeEnter survives.
  EXPECT_EQ(log.dropped(), 1u);
  std::vector<Event> old_events = log.EventsForTrace(old_trace);
  ASSERT_EQ(old_events.size(), 1u);
  EXPECT_EQ(old_events[0].kind, EventKind::kNodeEnter);
  // Every event carries its trace's origin, so attribution survives eviction.
  EXPECT_EQ(old_events[0].node, AtomOf("old-origin"));
  // The newer trace is still complete: kInject + two node spans.
  EXPECT_EQ(log.EventsForTrace(new_trace).size(), 3u);
}

TEST_F(TraceTest, RingWrapAroundFullyEvictedTraceIsEmpty) {
  EventLog& log = EventLog::Global();
  log.Enable(2);
  uint64_t gone = log.StartTrace(AtomOf("evicted-origin")).id;
  log.Record(EventKind::kNodeEnter, "gone-node");
  log.StartTrace(AtomOf("later"));
  log.Record(EventKind::kNodeEnter, "later-node");
  // Both of `gone`'s events rolled off: empty answer, not an error.
  EXPECT_TRUE(log.EventsForTrace(gone).empty());
  EXPECT_EQ(log.dropped(), 2u);
  // Clear restarts trace numbering.
  log.Clear();
  EXPECT_EQ(log.traces_started(), 0u);
  EXPECT_EQ(log.StartTrace(AtomOf("again")).id, 1u);
}

TEST_F(TraceTest, ScopedTraceRestoresPrevious) {
  EventLog& log = EventLog::Global();
  log.Enable(16);
  TraceContext outer = log.StartTrace(AtomOf("outer"));
  {
    ScopedTrace scope(log, TraceContext{42, AtomOf("inner")});
    EXPECT_EQ(log.current_trace(), 42u);
    EXPECT_EQ(log.current().origin, AtomOf("inner"));
  }
  EXPECT_EQ(log.current_trace(), outer.id);
  EXPECT_EQ(log.current().origin, outer.origin);
}

constexpr const char* kPipelineModule = R"(
  module.exports = function(RED) {
    function PassNode(config) {
      RED.nodes.createNode(this, config);
      let node = this;
      node.on("input", msg => { node.send(msg); });
    }
    function EndNode(config) {
      RED.nodes.createNode(this, config);
      let node = this;
      node.on("input", msg => { node.send(msg); });
    }
    RED.nodes.registerType("pass", PassNode);
    RED.nodes.registerType("end", EndNode);
  };
)";

TEST_F(TraceTest, ThreeNodeFlowProducesSpans) {
  EventLog& log = EventLog::Global();
  log.Enable(256);

  Interpreter interp;
  FlowEngine engine(&interp);
  ASSERT_TRUE(engine.LoadModule(kPipelineModule, "pipeline.js").ok());
  auto flow = Json::Parse(R"([
    { "id": "n1", "type": "pass", "wires": ["n2"] },
    { "id": "n2", "type": "pass", "wires": ["n3"] },
    { "id": "n3", "type": "end", "wires": [] }
  ])");
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(engine.InstantiateFlow(*flow).ok());

  ObjectPtr msg = MakeObject();
  msg->Set("payload", Value("ping"));
  ASSERT_TRUE(engine.InjectInput("n1", Value(msg)).ok());
  ASSERT_TRUE(interp.RunEventLoop().ok());

  ASSERT_EQ(log.traces_started(), 1u);
  std::vector<Event> events = log.EventsForTrace(1);
  ASSERT_FALSE(events.empty());

  // Count the structural spans: the whole cascade from one inject must be
  // attributed to the single trace and its origin node.
  int injects = 0, enters = 0, wire_sends = 0, terminal_sends = 0;
  for (const Event& event : events) {
    EXPECT_EQ(event.trace_id, 1u);
    EXPECT_EQ(event.node, AtomOf("n1"));
    switch (event.kind) {
      case EventKind::kInject:
        ++injects;
        EXPECT_EQ(event.subject, "n1");
        break;
      case EventKind::kNodeEnter:
        ++enters;
        break;
      case EventKind::kNodeSend:
        if (event.detail == "(terminal)") {
          ++terminal_sends;
        } else {
          ++wire_sends;
        }
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(injects, 1);
  EXPECT_EQ(enters, 3);         // n1, n2, n3 each saw the message
  EXPECT_EQ(wire_sends, 2);     // n1->n2, n2->n3
  EXPECT_EQ(terminal_sends, 1); // n3 has no wires

  // A second inject opens a distinct trace.
  ObjectPtr msg2 = MakeObject();
  msg2->Set("payload", Value("pong"));
  ASSERT_TRUE(engine.InjectInput("n1", Value(msg2)).ok());
  ASSERT_TRUE(interp.RunEventLoop().ok());
  EXPECT_EQ(log.traces_started(), 2u);
  EXPECT_FALSE(log.EventsForTrace(2).empty());
}

TEST_F(TraceTest, DisabledFlowStillRoutes) {
  // With the log left disabled, the same flow routes normally and no events
  // are buffered — the disabled path must not perturb execution. The trace
  // context still numbers the injected message.
  EventLog& log = EventLog::Global();
  ASSERT_FALSE(log.enabled());

  Interpreter interp;
  FlowEngine engine(&interp);
  ASSERT_TRUE(engine.LoadModule(kPipelineModule, "pipeline.js").ok());
  auto flow = Json::Parse(R"([
    { "id": "n1", "type": "pass", "wires": ["n2"] },
    { "id": "n2", "type": "end", "wires": [] }
  ])");
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(engine.InstantiateFlow(*flow).ok());
  ObjectPtr msg = MakeObject();
  msg->Set("payload", Value("quiet"));
  ASSERT_TRUE(engine.InjectInput("n1", Value(msg)).ok());
  ASSERT_TRUE(interp.RunEventLoop().ok());
  EXPECT_EQ(engine.messages_routed(), 1);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.traces_started(), 1u);
}

TEST_F(TraceTest, DiftCheckSpansCarryMemoizedLabelDetail) {
  // With the log enabled, every __dift check records a kDiftCheck journey
  // event whose detail renders both label sets. The rendering is memoized
  // per interned handle pair: repeated checks of the same sets reuse one
  // string instead of re-formatting label names per event.
  EventLog& log = EventLog::Global();
  log.Enable(64);

  Interpreter interp;
  auto policy = Policy::FromJsonText(R"json({
    "labellers": { "secret": { "$const": "secret" },
                   "public": { "$const": "public" } },
    "rules": ["public -> secret"]
  })json");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  std::shared_ptr<Policy> shared(std::move(*policy).release());
  DiftTracker tracker(&interp, shared);

  auto data = tracker.Label(Value("payload"), "secret");
  ASSERT_TRUE(data.ok());
  ObjectPtr sink = MakeObject();
  auto receiver = tracker.Label(Value(sink), "public");
  ASSERT_TRUE(receiver.ok());

  uint64_t renders_before = shared->pool().renders_computed();
  ASSERT_TRUE(tracker.Check(*data, *receiver, "store").ok());
  ASSERT_TRUE(tracker.Check(*data, *receiver, "store").ok());
  ASSERT_TRUE(tracker.Check(*data, *receiver, "store").ok());
  // The label sets were rendered at most once each across all three checks.
  EXPECT_LE(shared->pool().renders_computed() - renders_before, 2u);

  int check_spans = 0;
  for (const Event& event : log.Snapshot()) {
    if (event.kind != EventKind::kDiftCheck) {
      continue;
    }
    ++check_spans;
    EXPECT_EQ(event.subject, "store");
    EXPECT_EQ(event.detail, "{secret} vs {public}");
  }
  EXPECT_EQ(check_spans, 3);
}

TEST_F(TraceTest, EventToStringNamesKindAndSubject) {
  Event event;
  event.trace_id = 3;
  event.kind = EventKind::kDiftLabel;
  event.subject = "Frame";
  event.detail = "secret";
  std::string rendered = event.ToString();
  EXPECT_NE(rendered.find(EventKindName(EventKind::kDiftLabel)), std::string::npos);
  EXPECT_NE(rendered.find("Frame"), std::string::npos);
}

// --- decisions: ring, spill, stamping, counters, env -------------------------

TEST_F(AuditLedgerTest, DisabledRecordIsANoOp) {
  EventLog& log = EventLog::Global();
  EXPECT_FALSE(log.enabled());
  log.Record(MakeEvent(EventKind::kFlowCheck, "sink"));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.recorded(), 0u);
}

TEST_F(AuditLedgerTest, RingKeepsNewestAndCountsDrops) {
  EventLog& log = EventLog::Global();
  log.Enable(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeEvent(EventKind::kMerge, "op" + std::to_string(i)));
  }
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].subject, "op2");
  EXPECT_EQ(events[2].subject, "op4");
  // Sequence numbers stamp in arrival order, 1-based.
  EXPECT_EQ(events[0].seq, 3u);
  EXPECT_EQ(events[2].seq, 5u);
}

TEST_F(AuditLedgerTest, ClearResetsSequenceButKeepsEnabled) {
  EventLog& log = EventLog::Global();
  log.Enable(8);
  log.Record(MakeEvent(EventKind::kLabelAttach, "a"));
  log.Clear();
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.size(), 0u);
  log.Record(MakeEvent(EventKind::kLabelAttach, "b"));
  EXPECT_EQ(log.Snapshot()[0].seq, 1u);
}

TEST_F(AuditLedgerTest, RecordStampsAppAndTrace) {
  EventLog& log = EventLog::Global();
  log.Enable(8);
  log.set_app("camera-motion");
  log.Record(MakeEvent(EventKind::kSinkWrite, "node1"));
  std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].app, AtomOf("camera-motion"));
  EXPECT_EQ(log.app(), "camera-motion");
  // No trace was begun, so the stamp is the context's idle state.
  EXPECT_EQ(events[0].trace_id, log.current_trace());
}

TEST_F(AuditLedgerTest, CanonicalRendersVerdictRuleAndStamps) {
  EventLog& log = EventLog::Global();
  log.Enable(8);
  log.set_app("app-x");
  Event deny = MakeEvent(EventKind::kFlowCheck, "svc.send");
  deny.allowed = false;
  deny.data = 2;
  deny.receiver = 1;
  deny.detail = "{secret} vs {public}";
  deny.rule = "no rule allows 'secret'";
  log.Record(std::move(deny));
  std::string canonical = log.CanonicalLog();
  EXPECT_NE(canonical.find("flow_check[svc.send]"), std::string::npos) << canonical;
  EXPECT_NE(canonical.find("data=2 recv=1"), std::string::npos) << canonical;
  EXPECT_NE(canonical.find(" deny "), std::string::npos) << canonical;
  EXPECT_NE(canonical.find("rule='no rule allows 'secret''"), std::string::npos) << canonical;
  EXPECT_NE(canonical.find("app=app-x"), std::string::npos) << canonical;
}

TEST_F(AuditLedgerTest, SpillWritesEvictedAndFlushedEventsInOrder) {
  std::string path = ::testing::TempDir() + "/audit_spill.jsonl";
  std::remove(path.c_str());
  EventLog& log = EventLog::Global();
  log.Enable(/*capacity=*/2);
  ASSERT_TRUE(log.SetSpillPath(path));
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeEvent(EventKind::kMerge, "op" + std::to_string(i)));
  }
  // Three events were evicted into the file; two sit in the ring.
  EXPECT_EQ(log.spilled(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  log.FlushSpill();
  EXPECT_EQ(log.spilled(), 5u);
  log.Disable();  // closes the file
  std::string content = ReadWholeFile(path);
  std::vector<size_t> positions;
  for (int i = 0; i < 5; ++i) {
    size_t pos = content.find("\"subject\":\"op" + std::to_string(i) + "\"");
    ASSERT_NE(pos, std::string::npos) << content;
    positions.push_back(pos);
  }
  for (size_t i = 1; i < positions.size(); ++i) {
    EXPECT_LT(positions[i - 1], positions[i]);  // oldest first
  }
  std::remove(path.c_str());
}

TEST_F(AuditLedgerTest, CountersTrackKindsVerdictsAndDrops) {
  Metrics& metrics = Metrics::Global();
  Counter* flow_counter =
      metrics.GetCounter(MetricWithLabel("audit.events_total", "kind", "flow_check"));
  Counter* allowed_counter = metrics.GetCounter("audit.flows_allowed");
  Counter* denied_counter = metrics.GetCounter("audit.flows_denied");
  Counter* dropped_counter = metrics.GetCounter("audit.dropped_events");
  uint64_t flow0 = flow_counter->value();
  uint64_t allowed0 = allowed_counter->value();
  uint64_t denied0 = denied_counter->value();
  uint64_t dropped0 = dropped_counter->value();

  EventLog& log = EventLog::Global();
  log.Enable(/*capacity=*/1);
  Event allow = MakeEvent(EventKind::kFlowCheck, "a");
  allow.allowed = true;
  log.Record(std::move(allow));
  Event deny = MakeEvent(EventKind::kFlowCheck, "b");
  deny.allowed = false;
  log.Record(std::move(deny));  // evicts the first event -> one drop

  EXPECT_EQ(flow_counter->value(), flow0 + 2);
  EXPECT_EQ(allowed_counter->value(), allowed0 + 1);
  EXPECT_EQ(denied_counter->value(), denied0 + 1);
  EXPECT_EQ(dropped_counter->value(), dropped0 + 1);
}

TEST_F(AuditLedgerTest, PrometheusExpositionEscapesAppLabelValues) {
  // App names are operator-controlled strings: quotes and backslashes must
  // round-trip through the exposition escaping, not corrupt it.
  EventLog& log = EventLog::Global();
  log.Enable(8);
  log.set_app("weird\"app\\name");
  log.Record(MakeEvent(EventKind::kSinkWrite, "n"));
  std::string text = Metrics::Global().ToPrometheusText();
  EXPECT_NE(text.find("audit_app_events{app=\"weird\\\"app\\\\name\"}"), std::string::npos)
      << text;
  // The kind-labelled family is exposed too.
  EXPECT_NE(text.find("audit_events_total{kind=\"sink_write\"}"), std::string::npos);
}

TEST_F(AuditLedgerTest, EnvVarEnablesLedgerWithCapacityOrSpillPath) {
  EventLog& log = EventLog::Global();
  // Numeric value: ring capacity.
  ::setenv("TURNSTILE_AUDIT", "64", 1);
  ReapplyEnvObsConfigForTest();
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.capacity(), 64u);
  EXPECT_FALSE(log.has_spill());
  log.Disable();
  // Non-numeric value: spill path at default capacity.
  std::string path = ::testing::TempDir() + "/audit_env.jsonl";
  ::setenv("TURNSTILE_AUDIT", path.c_str(), 1);
  ReapplyEnvObsConfigForTest();
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.capacity(), EventLog::kDefaultCapacity);
  EXPECT_TRUE(log.has_spill());
  log.Disable();
  std::remove(path.c_str());
  // "0" / unset leave it off.
  ::setenv("TURNSTILE_AUDIT", "0", 1);
  ReapplyEnvObsConfigForTest();
  EXPECT_FALSE(log.enabled());
  ::unsetenv("TURNSTILE_AUDIT");
}

TEST_F(AuditLedgerTest, NumericEnvValueOutOfRangeLeavesFeatureOffInsteadOfNamingAFile) {
  // A wholly numeric value is a number, never a path: out of range it warns
  // and leaves the feature off rather than writing a file named "-5".
  std::remove("-5");
  std::remove("70000");
  ::setenv("TURNSTILE_AUDIT", "-5", 1);
  ::setenv("TURNSTILE_TELEMETRY", "70000", 1);
  ReapplyEnvObsConfigForTest();
  ::unsetenv("TURNSTILE_AUDIT");
  ::unsetenv("TURNSTILE_TELEMETRY");
  EXPECT_FALSE(EventLog::Global().enabled());
  EXPECT_FALSE(EventLog::Global().has_spill());
  EXPECT_FALSE(TelemetryServer::Global().running());
  EXPECT_FALSE(TelemetrySnapshotWriter::Global().running());
  TelemetrySnapshotWriter::Global().Stop();
  EventLog::Global().Disable();
  EXPECT_FALSE(std::ifstream("-5").good()) << "TURNSTILE_AUDIT=-5 created a file";
  EXPECT_FALSE(std::ifstream("70000").good()) << "TURNSTILE_TELEMETRY=70000 created a file";
  std::remove("-5");
  std::remove("70000");
}

// --- tracker integration: every decision kind is emitted by the real monitor --

constexpr const char* kPolicy = R"json({
  "labellers": {
    "secret": { "$const": "secret" },
    "public": { "$const": "public" },
    "mailerByRecipient": { "send": {
      "$invoke": "(obj, args) => (args[0] === \"boss\" ? \"secret\" : \"public\")" } }
  },
  "rules": ["public -> secret"]
})json";

class AuditEmitTest : public EventLogFixture {
 protected:
  void SetUp() override {
    EventLogFixture::SetUp();
    EventLog::Global().Enable(1u << 12);
    auto policy = Policy::FromJsonText(kPolicy);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    policy_ = std::shared_ptr<Policy>(std::move(policy).value().release());
    DiftTracker::Options options;
    options.mode = DiftTracker::Options::Mode::kReport;
    tracker_ = std::make_unique<DiftTracker>(&interp_, policy_, options);
    tracker_->Install();
  }

  void RunSource(const std::string& source) {
    auto program = ParseProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Status status = interp_.RunProgram(*program);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(interp_.RunEventLoop().ok());
  }

  Value Lookup(const std::string& name) {
    Value* slot = interp_.global_env()->Lookup(name);
    return slot != nullptr ? *slot : Value::Undefined();
  }

  // Events of `kind` currently buffered.
  std::vector<Event> EventsOfKind(EventKind kind) {
    std::vector<Event> out;
    for (Event& event : EventLog::Global().Snapshot()) {
      if (event.kind == kind) {
        out.push_back(std::move(event));
      }
    }
    return out;
  }

  Interpreter interp_;
  std::shared_ptr<Policy> policy_;
  std::unique_ptr<DiftTracker> tracker_;
};

TEST_F(AuditEmitTest, LabelAttachAndMergeAreLedgered) {
  RunSource(R"(
    let a = __dift.label("alpha", "secret");
    let b = __dift.binaryOp("+", a, "!");
  )");
  std::vector<Event> attaches = EventsOfKind(EventKind::kLabelAttach);
  ASSERT_EQ(attaches.size(), 1u);
  EXPECT_EQ(attaches[0].subject, "secret");
  EXPECT_EQ(attaches[0].detail, "{secret}");
  EXPECT_NE(attaches[0].out, kEmptyLabelSetRef);
  std::vector<Event> merges = EventsOfKind(EventKind::kMerge);
  ASSERT_EQ(merges.size(), 1u);
  EXPECT_EQ(merges[0].subject, "+");
  EXPECT_EQ(merges[0].detail, "{secret}");
}

TEST_F(AuditEmitTest, DeclassifyIsAConstRelabelOfLabelledData) {
  RunSource(R"(
    let data = __dift.label({ v: "x" }, "secret");
    __dift.label(data, "public");
  )");
  std::vector<Event> declassifies = EventsOfKind(EventKind::kDeclassify);
  ASSERT_EQ(declassifies.size(), 1u);
  EXPECT_EQ(declassifies[0].subject, "public");
  // The prior label set rides in `data` so the log shows what was
  // declassified from.
  EXPECT_NE(declassifies[0].data, kEmptyLabelSetRef);
}

TEST_F(AuditEmitTest, FlowChecksCarryVerdictAndRule) {
  RunSource(R"(
    let pub = __dift.label({ ch: "board" }, "public");
    let sec = __dift.label({ ch: "vault" }, "secret");
    let ok = __dift.check(__dift.label("p", "public"), sec);
    let bad = __dift.check(__dift.label("s", "secret"), pub);
  )");
  EXPECT_TRUE(Lookup("ok").AsBool());
  EXPECT_FALSE(Lookup("bad").AsBool());
  std::vector<Event> checks = EventsOfKind(EventKind::kFlowCheck);
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_TRUE(checks[0].allowed);
  EXPECT_EQ(checks[0].rule, "public -> secret");
  EXPECT_FALSE(checks[1].allowed);
  EXPECT_EQ(checks[1].rule, "no rule allows 'secret'");
  EXPECT_EQ(checks[1].detail, "{secret} vs {public}");
  // Denied flow checks agree with the tracker's violation record.
  EXPECT_EQ(tracker_->violations().size(), 1u);
}

TEST_F(AuditEmitTest, InvokeLabellerFireAndSinkWriteAreLedgered) {
  RunSource(R"(
    let fs = require("fs");
    let mailer = { send: (to, body) => "ok" };
    __dift.label(mailer, "mailerByRecipient");
    let frame = __dift.label("face-frame", "secret");
    __dift.invoke(mailer, "send", ["boss", frame]);
    __dift.invoke(fs, "writeFileSync", ["/out.bin", frame]);
  )");
  std::vector<Event> fires = EventsOfKind(EventKind::kInvokeLabeller);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].subject, "mailerByRecipient@send");
  EXPECT_EQ(fires[0].detail, "{secret}");
  std::vector<Event> sinks = EventsOfKind(EventKind::kSinkWrite);
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0].subject, "writeFileSync");
  EXPECT_EQ(sinks[0].detail, "{secret}");
}

// --- one event per DIFT site, two views -------------------------------------

TEST_F(AuditEmitTest, AttachAndMergeEachLogOnceAndShowInBothViews) {
  // A labeller attach and a labelled binaryOp record one event each: the
  // decisions view renders them as label_attach / merge with their own
  // ordinals, the journey view of their trace as dift_label / dift_binary_op.
  EventLog& log = EventLog::Global();
  TraceContext trace = log.StartTrace(AtomOf("src"));
  RunSource(R"(
    let a = __dift.label("alpha", "secret");
    let b = __dift.binaryOp("+", a, "!");
  )");
  log.SetCurrent(TraceContext{});
  ASSERT_EQ(log.recorded(), 3u);  // inject, label_attach, merge
  EXPECT_EQ(log.decisions(), 2u);

  std::vector<Event> decisions = log.Decisions();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].seq, 1u);
  EXPECT_EQ(decisions[1].seq, 2u);
  EXPECT_EQ(log.CanonicalLog(),
            "#1 label_attach[secret] data=0 recv=0 out=" + std::to_string(decisions[0].out) +
                " {secret} trace=1 node=src\n"
                "#2 merge[+] data=" + std::to_string(decisions[1].data) +
                " recv=0 out=" + std::to_string(decisions[1].out) +
                " {secret} trace=1 node=src\n");

  std::vector<Event> journey = log.EventsForTrace(trace.id);
  ASSERT_EQ(journey.size(), 3u);
  EXPECT_EQ(journey[0].kind, EventKind::kInject);
  EXPECT_EQ(journey[1].kind, EventKind::kDiftLabel);
  EXPECT_EQ(journey[1].ToString(), "dift_label[secret] {secret} @0.000 (trace 1)");
  EXPECT_EQ(journey[2].kind, EventKind::kDiftBinaryOp);
  EXPECT_EQ(journey[2].ToString(), "dift_binary_op[+] {secret} @0.000 (trace 1)");
}

// --- the profiler alone leaves the log off ----------------------------------

TEST_F(EventLogTest, ProfilerAloneLeavesLogDisabledAndStillAggregates) {
  Profiler& profiler = Profiler::Global();
  profiler.Enable();
  EventLog& log = EventLog::Global();
  EXPECT_FALSE(log.enabled());

  Interpreter interp;
  FlowEngine engine(&interp);
  ASSERT_TRUE(engine.LoadModule(kPipelineModule, "pipeline.js").ok());
  auto flow = Json::Parse(R"([
    { "id": "n1", "type": "pass", "wires": ["n2"] },
    { "id": "n2", "type": "end", "wires": [] }
  ])");
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(engine.InstantiateFlow(*flow).ok());
  const uint64_t before = log.traces_started();
  ObjectPtr msg = MakeObject();
  msg->Set("payload", Value("ping"));
  ASSERT_TRUE(engine.InjectInput("n1", Value(msg)).ok());
  ASSERT_TRUE(interp.RunEventLoop().ok());
  const OverheadSplit split = profiler.split();
  const std::vector<FunctionProfile> functions = profiler.FunctionsSnapshot();
  profiler.Disable();

  // The trace context still numbered the message; nothing was recorded.
  EXPECT_FALSE(log.enabled());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.traces_started(), before + 1);
  // The aggregates filled: n1's and n2's input turns billed app time and
  // their handlers were profiled as frames.
  EXPECT_GT(split.app_s, 0.0);
  EXPECT_FALSE(functions.empty());
}

}  // namespace
}  // namespace obs
}  // namespace turnstile
