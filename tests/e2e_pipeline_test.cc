// End-to-end pipeline properties, checked over randomized workloads:
//
//   P1 (transparency / weak noninterference): when the policy admits every
//      flow, the managed application produces byte-identical sink traffic to
//      the original — for both instrumentation strategies, over random
//      message streams.
//   P2 (enforcement soundness): under a restrictive policy in enforce mode,
//      no sink record ever contains data the policy forbids, whatever the
//      input stream.
//   P3 (print/parse round-trip): an instrumented program survives
//      Print -> Parse -> run with identical behaviour (the instrumentor's
//      output is real source code, not an in-memory artifact).
//   P4 (report generation): every corpus app renders a well-formed report.
#include <gtest/gtest.h>

#include "src/analysis/report.h"
#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/dift/tracker.h"
#include "src/flow/engine.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace turnstile {
namespace {

std::vector<std::string> SinkTraffic(Interpreter& interp) {
  std::vector<std::string> out;
  for (const IoRecord& record : interp.io_world().records) {
    out.push_back(record.channel + "|" + record.op + "|" + record.detail + "|" +
                  record.payload);
  }
  return out;
}

// --- P1: transparency over random seeds --------------------------------------

class TransparencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransparencyTest, ManagedEqualsOriginalOnViolationFreePolicies) {
  // A representative slice of the corpus (different entry kinds and sinks).
  // (modbus is exercised by the corpus suite; its 30 ms/message workload is
  // too slow to repeat across seeds here.)
  for (const char* name : {"camera-motion", "dispatch-hub", "watson",
                           "presence-tracker", "sqlite-history"}) {
    const CorpusApp* app = FindCorpusApp(name);
    ASSERT_NE(app, nullptr) << name;
    std::vector<std::string> traffic[3];
    int index = 0;
    for (AppVersion version :
         {AppVersion::kOriginal, AppVersion::kSelective, AppVersion::kExhaustive}) {
      auto runtime = AppRuntime::Create(*app, version);
      ASSERT_TRUE(runtime.ok()) << name << ": " << runtime.status().ToString();
      Rng rng(GetParam());
      for (int seq = 0; seq < 8; ++seq) {
        ASSERT_TRUE((*runtime)->DriveMessage(&rng, seq).ok()) << name;
      }
      traffic[index++] = SinkTraffic((*runtime)->interp());
      if (version != AppVersion::kOriginal) {
        EXPECT_TRUE((*runtime)->tracker()->violations().empty())
            << name << ": placeholder policies must be violation-free";
      }
    }
    EXPECT_EQ(traffic[0], traffic[1]) << name << " selective diverged";
    EXPECT_EQ(traffic[0], traffic[2]) << name << " exhaustive diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransparencyTest,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

// --- P2: enforcement soundness ------------------------------------------------

constexpr const char* kGuardedApp = R"(
  let net = require("net");
  let fs = require("fs");
  let socket = net.connect(554, "cam");
  socket.on("data", frame => {
    frame = __dift.label(frame, "Frame");
    let archive = __dift.label(fs, "Archive");
    archive.writeFileSync("/archive.bin", frame);
  });
)";

constexpr const char* kGuardPolicy = R"json({
  "labellers": {
    "Frame": { "$fn": "f => (f.includes(\"secret\") ? \"secret\" : \"public\")" },
    "Archive": { "$const": "publicArchive" }
  },
  "rules": ["public -> publicArchive"]
})json";

class EnforcementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnforcementTest, ForbiddenDataNeverReachesTheSink) {
  auto program = ParseProgram(kGuardedApp, "guarded.js");
  ASSERT_TRUE(program.ok());
  auto policy_result = Policy::FromJsonText(kGuardPolicy);
  ASSERT_TRUE(policy_result.ok());
  std::shared_ptr<Policy> policy(std::move(policy_result).value().release());
  auto analysis = AnalyzeProgram(*program);
  ASSERT_TRUE(analysis.ok());
  auto instrumented =
      InstrumentProgram(*program, *policy, InstrumentMode::kSelective, &*analysis);
  ASSERT_TRUE(instrumented.ok());

  Interpreter interp;
  DiftTracker tracker(&interp, policy);  // default: enforce
  tracker.Install();
  ASSERT_TRUE(interp.RunProgram(instrumented->program).ok());
  ASSERT_TRUE(interp.RunEventLoop().ok());

  Rng rng(GetParam());
  int secret_count = 0;
  auto& sockets = interp.io_world().emitters["net.socket"];
  ASSERT_FALSE(sockets.empty());
  for (int i = 0; i < 40; ++i) {
    bool is_secret = rng.NextBool(0.5);
    secret_count += is_secret;
    std::string frame = (is_secret ? "secret:" : "routine:") + rng.NextWord(12);
    interp.EmitEvent(sockets[0], "data", {Value(frame)});
    ASSERT_TRUE(interp.RunEventLoop().ok());
  }
  // Soundness: nothing containing "secret" was written.
  int written = 0;
  for (const IoRecord& record : interp.io_world().records) {
    EXPECT_EQ(record.payload.find("secret:"), std::string::npos)
        << "forbidden payload leaked: " << record.payload;
    ++written;
  }
  // Completeness on this workload: everything else was written, and every
  // secret frame produced a violation.
  EXPECT_EQ(written, 40 - secret_count);
  EXPECT_EQ(static_cast<int>(tracker.violations().size()), secret_count);
  // Provenance: every violation explains itself — the chain names the
  // labeller that attached the offending label and the sink it hit, even
  // with the event log disabled (the default here).
  for (const Violation& violation : tracker.violations()) {
    ASSERT_FALSE(violation.provenance.empty());
    bool names_labeller = false;
    bool names_sink = false;
    for (const obs::Event& event : violation.provenance) {
      if (event.kind == obs::EventKind::kDiftLabel && event.subject == "Frame") {
        names_labeller = true;
      }
      if (event.kind == obs::EventKind::kViolation &&
          event.subject.find("writeFileSync") != std::string::npos) {
        names_sink = true;
      }
    }
    EXPECT_TRUE(names_labeller) << ExplainViolation(violation);
    EXPECT_TRUE(names_sink) << ExplainViolation(violation);
    // The rendered explanation is the user-facing artifact.
    std::string explained = ExplainViolation(violation);
    EXPECT_NE(explained.find("Frame"), std::string::npos) << explained;
    EXPECT_NE(explained.find("writeFileSync"), std::string::npos) << explained;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnforcementTest,
                         ::testing::Values(5u, 1979u, 31337u, 424242u, 8675309u));

// The guarded app as a two-node flow: "cam" labels each frame, "store"
// writes it to the archive. Flow injection gives every message a trace.
constexpr const char* kGuardedFlowModule = R"(
  module.exports = function(RED) {
    let fs = require("fs");
    function CameraNode(config) {
      RED.nodes.createNode(this, config);
      let node = this;
      node.on("input", msg => {
        msg.payload = __dift.label(msg.payload, "Frame");
        node.send(msg);
      });
    }
    function ArchiveNode(config) {
      RED.nodes.createNode(this, config);
      let node = this;
      node.on("input", msg => {
        let archive = __dift.label(fs, "Archive");
        __dift.invoke(archive, "writeFileSync", ["/archive.bin", msg.payload]);
      });
    }
    RED.nodes.registerType("camera", CameraNode);
    RED.nodes.registerType("archive", ArchiveNode);
  };
)";

// Drives one routine and one secret frame through the guarded flow and
// returns the single resulting violation.
Violation GuardedFlowDenial() {
  Interpreter interp;
  auto policy = Policy::FromJsonText(kGuardPolicy);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  std::shared_ptr<Policy> shared(std::move(policy).value().release());
  DiftTracker tracker(&interp, shared);
  tracker.Install();
  FlowEngine engine(&interp);
  EXPECT_TRUE(engine.LoadModule(kGuardedFlowModule, "guarded_flow.js").ok());
  auto flow = Json::Parse(R"([
    { "id": "cam", "type": "camera", "wires": ["store"] },
    { "id": "store", "type": "archive", "wires": [] }
  ])");
  EXPECT_TRUE(flow.ok());
  EXPECT_TRUE(engine.InstantiateFlow(*flow).ok());
  for (const char* frame : {"routine-1", "secret-2"}) {
    ObjectPtr msg = MakeObject();
    msg->Set("payload", Value(frame));
    EXPECT_TRUE(engine.InjectInput("cam", Value(msg)).ok());
    EXPECT_TRUE(interp.RunEventLoop().ok());
  }
  EXPECT_EQ(tracker.violations().size(), 1u);
  return tracker.violations().empty() ? Violation{} : tracker.violations().front();
}

std::vector<std::string> RenderedProvenance(const Violation& violation) {
  std::vector<std::string> out;
  for (const obs::Event& event : violation.provenance) {
    out.push_back(event.ToString());
  }
  return out;
}

TEST(ExplainViolationTest, EventLogOnRecordsTheWholeJourney) {
  obs::EventLog::Global().Enable(4096);
  Violation violation = GuardedFlowDenial();
  obs::EventLog::Global().Disable();
  EXPECT_EQ(ExplainViolation(violation),
            "violation at t=0.000: {secret} -> writeFileSync\n"
            "  message injected at flow node 'cam' (trace #2)\n"
            "  provenance chain:\n"
            "    1. dift_label[Frame] attached 'secret' at node 'cam' @0.000 (trace 2)\n"
            "    2. inject[cam] @0.000 (trace 2)\n"
            "    3. loop_turn[input] 2 listener(s) @0.000 (trace 2)\n"
            "    4. node_enter[cam] @0.000 (trace 2)\n"
            "    5. dift_label[Frame] {secret} @0.000 (trace 2)\n"
            "    6. node_send[cam] store @0.000 (trace 2)\n"
            "    7. loop_turn[input] 2 listener(s) @0.000 (trace 2)\n"
            "    8. node_enter[store] @0.000 (trace 2)\n"
            "    9. dift_label[Archive] {publicArchive} @0.000 (trace 2)\n"
            "   10. dift_invoke[writeFileSync] @0.000 (trace 2)\n"
            "   11. violation[writeFileSync] {secret} cannot flow to {publicArchive} "
            "@0.000 (trace 2)\n");
  using obs::EventKind;
  const std::vector<EventKind> kinds = {
      EventKind::kDiftLabel, EventKind::kInject,    EventKind::kLoopTurn,   EventKind::kNodeEnter,
      EventKind::kDiftLabel, EventKind::kNodeSend,  EventKind::kLoopTurn,   EventKind::kNodeEnter,
      EventKind::kDiftLabel, EventKind::kDiftInvoke, EventKind::kViolation};
  ASSERT_EQ(violation.provenance.size(), kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(violation.provenance[i].kind, kinds[i]) << i;
    EXPECT_EQ(violation.provenance[i].trace_id, 2u) << i;
  }
  EXPECT_EQ(violation.provenance[4].subject, "Frame");
  EXPECT_EQ(violation.provenance[4].detail, "{secret}");
}

TEST(ExplainViolationTest, EventLogOffStillNamesOriginNodeAndTrace) {
  // The trace context is always on: with the log off the journey is not
  // buffered, but the explanation still names the message's origin node and
  // trace number.
  ASSERT_FALSE(obs::EventLog::Global().enabled());
  obs::EventLog::Global().Clear();  // trace numbering restarts at 1
  Violation violation = GuardedFlowDenial();
  EXPECT_EQ(violation.origin_node, "cam");
  EXPECT_EQ(ExplainViolation(violation),
            "violation at t=0.000: {secret} -> writeFileSync\n"
            "  message injected at flow node 'cam' (trace #2)\n"
            "  provenance chain:\n"
            "    1. dift_label[Frame] attached 'secret' at node 'cam' @0.000 (trace 2)\n"
            "    2. violation[writeFileSync] {secret} cannot flow to {publicArchive} "
            "@0.000 (trace 2)\n");
  EXPECT_EQ(RenderedProvenance(violation),
            (std::vector<std::string>{
                "dift_label[Frame] attached 'secret' at node 'cam' @0.000 (trace 2)",
                "violation[writeFileSync] {secret} cannot flow to {publicArchive} "
                "@0.000 (trace 2)"}));
}

// --- P3: print/parse round-trip of instrumented programs ----------------------

TEST(PipelineRoundTripTest, InstrumentedSourceRunsIdentically) {
  for (const char* name : {"camera-motion", "nlp.js", "geo-fence"}) {
    const CorpusApp* app = FindCorpusApp(name);
    ASSERT_NE(app, nullptr);
    auto program = ParseProgram(app->source, app->name + ".js");
    ASSERT_TRUE(program.ok());
    auto policy_result = Policy::FromJsonText(app->policy_json);
    ASSERT_TRUE(policy_result.ok());
    std::shared_ptr<Policy> policy(std::move(policy_result).value().release());
    auto analysis = AnalyzeProgram(*program);
    ASSERT_TRUE(analysis.ok());
    auto instrumented =
        InstrumentProgram(*program, *policy, InstrumentMode::kExhaustive, &*analysis);
    ASSERT_TRUE(instrumented.ok());

    // Reparse the printed instrumented source.
    std::string printed = PrintProgram(instrumented->program);
    auto reparsed = ParseProgram(printed, app->name + ".printed.js");
    ASSERT_TRUE(reparsed.ok()) << name << ": " << reparsed.status().ToString() << "\n"
                               << printed;

    // Both must be loadable and produce the same module registrations.
    for (const Program* variant : {&instrumented->program, &*reparsed}) {
      Interpreter interp;
      DiftTracker tracker(&interp, policy);
      tracker.Install();
      FlowEngine engine(&interp);
      ASSERT_TRUE(engine.LoadModule(*variant).ok()) << name;
      EXPECT_FALSE(engine.registered_types().empty()) << name;
    }
  }
}

// --- P4: reports --------------------------------------------------------------

TEST(ReportTest, EveryCorpusAppRendersAReport) {
  for (const CorpusApp& app : Corpus()) {
    auto program = ParseProgram(app.source, app.name + ".js");
    ASSERT_TRUE(program.ok());
    auto analysis = AnalyzeProgram(*program);
    ASSERT_TRUE(analysis.ok());
    std::string html = RenderHtmlReport(*program, app.source, *analysis);
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find(app.name), std::string::npos);
    if (!analysis->paths.empty()) {
      EXPECT_NE(html.find("class=\"flow\""), std::string::npos) << app.name;
      EXPECT_NE(html.find("source"), std::string::npos) << app.name;
    }
    std::string text = RenderTextReport(*program, app.source, *analysis);
    EXPECT_NE(text.find(app.name), std::string::npos);
  }
}

TEST(ReportTest, HighlightsSourceAndSinkLines) {
  const char* source =
      "let net = require(\"net\");\n"
      "let s = net.connect(1, \"h\");\n"
      "s.on(\"data\", d => {\n"
      "  s.write(d);\n"
      "});\n";
  auto program = ParseProgram(source, "tiny.js");
  ASSERT_TRUE(program.ok());
  auto analysis = AnalyzeProgram(*program);
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->paths.size(), 1u);
  std::string text = RenderTextReport(*program, source, *analysis);
  EXPECT_NE(text.find("S    3 |"), std::string::npos) << text;  // source line
  EXPECT_NE(text.find("!    4 |"), std::string::npos) << text;  // sink line
}

}  // namespace
}  // namespace turnstile
