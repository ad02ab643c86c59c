// The paper's §5 case study: a Network Video Recorder (NVR) built as a
// Node-RED flow, with the Fig. 7 IFC policy:
//
//   - faces of EU residents may only be stored in EU-located databases
//     (GDPR), expressed as the rule US -> EU (EU is more private);
//   - no employee receives emails showing higher-ranked employees
//     (L1 -> L2 -> L3).
//
// Four nodes: Frame Capture -> Face Recognition -> {Frame Storage,
// Email Notification}, all loaded as ordinary Node-RED modules into the
// RedFlow engine — the engine does not know the code is instrumented
// (platform-independence + non-invasiveness).
#include <cstdio>

#include "src/analysis/analyzer.h"
#include "src/analysis/report.h"
#include "src/dift/tracker.h"
#include "src/flow/engine.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/event_log.h"

using namespace turnstile;

constexpr const char* kNvrModule = R"(module.exports = function(RED) {
  let deepstack = require("deepstack");
  let sqlite = require("sqlite3");
  let nodemailer = require("nodemailer");

  // Employee directory: region + rank per user id (the HR lookup the Fig. 7
  // label functions consult).
  employees = {
    user1: { region: "EU", level: "L3", email: "ceo@corp" },
    user2: { region: "US", level: "L2", email: "manager@corp" },
    user3: { region: "US", level: "L1", email: "intern@corp" }
  };
  // Assigned to globals so the policy's label functions (compiled in the
  // global scope, like the paper's inlined policy) can call them.
  getEmployeeById = function(id) {
    let hit = employees[id];
    return hit ? hit : { region: "US", level: "L1", email: "unknown@corp" };
  };
  getEmployeeByEmail = function(address) {
    for (let id of Object.keys(employees)) {
      if (employees[id].email === address) {
        return employees[id];
      }
    }
    return { region: "US", level: "L1" };
  };

  function FrameCaptureNode(config) {
    RED.nodes.createNode(this, config);
    let node = this;
    node.on("input", msg => {
      node.send({ frame: msg.payload, source: config.camera });
    });
  }

  function FaceRecognitionNode(config) {
    RED.nodes.createNode(this, config);
    let node = this;
    node.on("input", msg => {
      deepstack.faceRecognition(msg.frame, config.server, 0.6).then(result => {
        msg.payload = result.predictions;
        node.send(msg);
      });
    });
  }

  function FrameStorageNode(config) {
    RED.nodes.createNode(this, config);
    this.settings = { region: config.region };
    let node = this;
    let db = new sqlite.Database(config.path);
    node.on("input", msg => {
      db.run('INSERT INTO frames VALUES (?, ?)', [msg.source, msg.payload]);
      node.send(msg);
    });
  }

  function EmailNotificationNode(config) {
    RED.nodes.createNode(this, config);
    let node = this;
    let smtpTransport = nodemailer.createTransport({ service: "smtp" });
    node.on("input", msg => {
      let sendopts = { to: config.recipient, attachments: msg.payload };
      smtpTransport.sendMail(sendopts, (error, info) => {});
    });
  }

  RED.nodes.registerType("frame-capture", FrameCaptureNode);
  RED.nodes.registerType("face-recognition", FaceRecognitionNode);
  RED.nodes.registerType("frame-storage", FrameStorageNode);
  RED.nodes.registerType("email-notification", EmailNotificationNode);
};
)";

// Fig. 7, adapted to this reproduction's policy format. The recognizer's
// predictions are labelled {region, level} per face; the database node is
// labelled with its deployment region; the mailer is labelled with the
// recipient's rank at call time ($invoke).
constexpr const char* kNvrPolicy = R"json({
  "labellers": {
    "onRecognize": { "payload": { "$map": {
      "$fn": "item => { let e = getEmployeeById(item.userid); return [e.region, e.level]; }" } } },
    "mailer": { "sendMail": {
      "$invoke": "(object, args) => { let e = getEmployeeByEmail(args[0].to); return [e.region, e.level]; }" } },
    "nodeRegion": { "$fn": "node => (node.settings ? [node.settings.region, \"L3\"] : null)" },
    "dbRegion": { "$fn": "d => (d.path ? [d.path.includes(\"-us.db\") ? \"US\" : \"EU\", \"L3\"] : null)" }
  },
  "rules": ["US -> EU", "L1 -> L2", "L2 -> L3"],
  "injections": [
    { "object": "msg", "labeller": "onRecognize" },
    { "object": "smtpTransport", "labeller": "mailer" },
    { "object": "node", "labeller": "nodeRegion" },
    { "object": "db", "labeller": "dbRegion" }
  ]
})json";

constexpr const char* kFlow = R"json([
  { "id": "capture", "type": "frame-capture",
    "config": { "camera": "lobby-cam" }, "wires": ["recognize"] },
  { "id": "recognize", "type": "face-recognition",
    "config": { "server": "http://deepstack.local" }, "wires": ["store"] },
  { "id": "store", "type": "frame-storage",
    "config": { "path": "/var/nvr-us.db", "region": "US" }, "wires": ["notify"] },
  { "id": "notify", "type": "email-notification",
    "config": { "recipient": "intern@corp" }, "wires": [] }
])json";

int main() {
  std::printf("NVR case study (paper §5): US-located database, L1 email recipient.\n");
  std::printf("Expected: frames with EU or >L1 faces are blocked from the US store\n");
  std::printf("and from the intern's inbox; anonymous frames flow freely.\n\n");

  auto program = ParseProgram(kNvrModule, "nvr.js");
  auto policy_result = Policy::FromJsonText(kNvrPolicy);
  auto flow = Json::Parse(kFlow);
  if (!program.ok() || !policy_result.ok() || !flow.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<Policy> policy(std::move(policy_result).value().release());

  auto analysis = AnalyzeProgram(*program);
  if (!analysis.ok()) {
    return 1;
  }
  std::printf("static analysis found %zu privacy-sensitive dataflows\n\n",
              analysis->paths.size());
  auto instrumented =
      InstrumentProgram(*program, *policy, InstrumentMode::kSelective, &*analysis);
  if (!instrumented.ok()) {
    std::fprintf(stderr, "instrument: %s\n", instrumented.status().ToString().c_str());
    return 1;
  }

  // Trace every injected frame so blocked flows can explain themselves.
  obs::EventLog::Global().Enable(4096);

  Interpreter interp;
  DiftTracker tracker(&interp, policy);
  tracker.Install();
  FlowEngine engine(&interp);
  Status status = engine.LoadModule(instrumented->program);
  if (!status.ok()) {
    std::fprintf(stderr, "load: %s\n", status.ToString().c_str());
    return 1;
  }
  status = engine.InstantiateFlow(*flow);
  if (!status.ok()) {
    std::fprintf(stderr, "flow: %s\n", status.ToString().c_str());
    return 1;
  }

  // Stream frames whose simulated recognition results differ (the deepstack
  // module derives deterministic predictions from the frame content).
  for (int seq = 0; seq < 8; ++seq) {
    ObjectPtr msg = MakeObject();
    msg->Set("payload", Value("nvr-frame-" + std::to_string(seq * 7)));
    Status inject = engine.InjectInput("capture", Value(msg));
    if (!inject.ok()) {
      std::fprintf(stderr, "inject: %s\n", inject.ToString().c_str());
      return 1;
    }
    Status loop = interp.RunEventLoop();
    if (!loop.ok()) {
      std::fprintf(stderr, "loop: %s\n", loop.ToString().c_str());
      return 1;
    }
  }

  std::printf("deliveries that the policy allowed:\n");
  for (const IoRecord& record : interp.io_world().records) {
    if (record.channel == "sqlite" || record.channel == "smtp") {
      std::printf("  [%s] %s -> %s\n", record.channel.c_str(), record.op.c_str(),
                  record.detail.c_str());
    }
  }
  std::printf("\nflows blocked by the IFC policy:\n");
  for (const Violation& violation : tracker.violations()) {
    std::printf("  %s: data %s may not flow to receiver %s\n", violation.sink.c_str(),
                violation.data_labels.c_str(), violation.receiver_labels.c_str());
  }
  if (!tracker.violations().empty()) {
    std::printf("\nwhy was the first flow blocked?\n%s",
                ExplainViolation(tracker.violations().front()).c_str());
  }
  std::printf("\ntracker stats: %llu labels, %llu invokes, %llu boxes\n",
              static_cast<unsigned long long>(tracker.stats().label_calls),
              static_cast<unsigned long long>(tracker.stats().invokes),
              static_cast<unsigned long long>(tracker.stats().boxes_created));
  tracker.PublishMetrics();
  std::printf("\nmetrics snapshot:\n%s\n",
              obs::Metrics::Global().ToJson().Dump(/*pretty=*/true).c_str());
  return 0;
}
