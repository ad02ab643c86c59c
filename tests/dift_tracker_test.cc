// The inlined DIFT tracker: labelling, Fig. 5 semantics, boxing of value
// types, proxy handling of dynamic properties, and violation detection.
#include "src/dift/tracker.h"

#include <gtest/gtest.h>

#include "src/lang/parser.h"

namespace turnstile {
namespace {

constexpr const char* kBasicPolicy = R"json({
  "labellers": {
    "employeeOrCustomer": {
      "$fn": "item => (item.employeeID ? \"employee\" : \"customer\")" },
    "scene": { "persons": { "$map": {
      "$fn": "item => (item.employeeID ? \"employee\" : \"customer\")" } } },
    "secret": { "$const": "secret" },
    "public": { "$const": "public" },
    "multi": { "$const": ["A", "B"] },
    "byContent": { "$fn": "s => (s.includes(\"face\") ? \"secret\" : null)" },
    "mailerByRecipient": { "send": {
      "$invoke": "(obj, args) => (args[0] === \"boss\" ? \"secret\" : \"public\")" } }
  },
  "rules": ["employee -> customer", "customer -> internal", "public -> secret", "A -> B"]
})json";

class TrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto policy = Policy::FromJsonText(kBasicPolicy);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    policy_ = std::shared_ptr<Policy>(std::move(policy).value().release());
    tracker_ = std::make_unique<DiftTracker>(&interp_, policy_);
    tracker_->Install();
  }

  // Runs MiniScript source with __dift installed.
  void RunSource(const std::string& source) {
    auto program = ParseProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Status status = interp_.RunProgram(*program);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(interp_.RunEventLoop().ok());
  }

  Value Global(const std::string& name) {
    Value* slot = interp_.global_env()->Lookup(name);
    return slot != nullptr ? *slot : Value::Undefined();
  }

  std::vector<std::string> LabelsOf(const Value& v) {
    LabelSet set = tracker_->DeepLabel(v);
    std::vector<std::string> names;
    for (LabelId id : set.ids()) {
      names.push_back(policy_->space().NameOf(id));
    }
    return names;
  }

  Interpreter interp_;
  std::shared_ptr<Policy> policy_;
  std::unique_ptr<DiftTracker> tracker_;
};

TEST_F(TrackerTest, LabelObjectWithFnLabeller) {
  RunSource(R"(
    let person = { employeeID: 17, name: "kim" };
    __dift.label(person, "employeeOrCustomer");
    let labels = __dift.labelsOf(person);
  )");
  EXPECT_EQ(Global("labels").ToDisplayString(), "[employee]");
}

TEST_F(TrackerTest, LabelDependsOnValue) {
  // Value-dependent labels (§4.4): same labeller, different run-time values.
  RunSource(R"(
    let visitor = { name: "anon" };
    __dift.label(visitor, "employeeOrCustomer");
    let labels = __dift.labelsOf(visitor);
  )");
  EXPECT_EQ(Global("labels").ToDisplayString(), "[customer]");
}

TEST_F(TrackerTest, LabelValueTypeCreatesBox) {
  RunSource(R"(
    let frame = __dift.label("face-bytes", "secret");
    let labels = __dift.labelsOf(frame);
    let raw = __dift.unwrap(frame);
  )");
  EXPECT_EQ(Global("labels").ToDisplayString(), "[secret]");
  EXPECT_EQ(Global("raw").ToDisplayString(), "face-bytes");
  EXPECT_TRUE(IsBox(Global("frame")));
  EXPECT_EQ(tracker_->stats().boxes_created, 1u);
}

TEST_F(TrackerTest, FnLabellerReturningNullDoesNotBox) {
  RunSource(R"(
    let data = __dift.label("just-telemetry", "byContent");
  )");
  EXPECT_FALSE(IsBox(Global("data")));
  EXPECT_TRUE(LabelsOf(Global("data")).empty());
}

TEST_F(TrackerTest, MapLabellerLabelsElementsAndContainer) {
  RunSource(R"(
    let scene = { location: "lobby",
                  persons: [{ employeeID: 1 }, { name: "guest" }] };
    __dift.label(scene, "scene");
    let sceneLabels = __dift.labelsOf(scene);
    let p0 = __dift.labelsOf(scene.persons[0]);
    let p1 = __dift.labelsOf(scene.persons[1]);
  )");
  EXPECT_EQ(Global("sceneLabels").ToDisplayString(), "[employee, customer]");
  EXPECT_EQ(Global("p0").ToDisplayString(), "[employee]");
  EXPECT_EQ(Global("p1").ToDisplayString(), "[customer]");
}

TEST_F(TrackerTest, BinaryOpProducesCompoundLabel) {
  // Fig. 5 (binaryOp): v1 ⊙ v2 ↦ P1 ∪ P2.
  RunSource(R"(
    let a = __dift.label("alpha", "secret");
    let b = __dift.label("beta", "public");
    let c = __dift.binaryOp("+", a, b);
    let labels = __dift.labelsOf(c);
    let value = __dift.unwrap(c);
  )");
  EXPECT_EQ(Global("value").ToDisplayString(), "alphabeta");
  EXPECT_EQ(Global("labels").ToDisplayString(), "[public, secret]");
  EXPECT_EQ(tracker_->stats().binary_ops, 1u);
}

TEST_F(TrackerTest, BinaryOpOnUnlabelledOperandsAddsNoBox) {
  RunSource(R"(
    let c = __dift.binaryOp("*", 6, 7);
  )");
  EXPECT_FALSE(IsBox(Global("c")));
  EXPECT_DOUBLE_EQ(Global("c").AsNumber(), 42);
}

TEST_F(TrackerTest, BoxesAreTransparentToArithmetic) {
  RunSource(R"(
    let n = __dift.label(21, "secret");
    let doubled = __dift.binaryOp("*", n, 2);
    let raw = __dift.unwrap(doubled);
    let labels = __dift.labelsOf(doubled);
  )");
  EXPECT_DOUBLE_EQ(Global("raw").AsNumber(), 42);
  EXPECT_EQ(Global("labels").ToDisplayString(), "[secret]");
}

TEST_F(TrackerTest, CheckAllowsFlowUpTheHierarchy) {
  RunSource(R"(
    let data = __dift.label({ id: 1 }, "public");
    let receiver = __dift.label({ sinkish: true }, "secret");
    let allowed = __dift.check(data, receiver);
  )");
  EXPECT_TRUE(Global("allowed").AsBool());
  EXPECT_TRUE(tracker_->violations().empty());
}

TEST_F(TrackerTest, CheckForbidsFlowDownTheHierarchy) {
  RunSource(R"(
    let data = __dift.label({ id: 1 }, "secret");
    let receiver = __dift.label({ sinkish: true }, "public");
    let allowed = __dift.check(data, receiver);
  )");
  EXPECT_FALSE(Global("allowed").AsBool());
  ASSERT_EQ(tracker_->violations().size(), 1u);
  EXPECT_EQ(tracker_->violations()[0].data_labels, "{secret}");
  EXPECT_EQ(tracker_->violations()[0].receiver_labels, "{public}");
}

TEST_F(TrackerTest, CheckUnlabeledReceiverIsAllowedByDefault) {
  RunSource(R"(
    let data = __dift.label({ id: 1 }, "secret");
    let allowed = __dift.check(data, { plain: true });
  )");
  EXPECT_TRUE(Global("allowed").AsBool());
}

TEST_F(TrackerTest, StrictModeFlagsUnlabeledReceivers) {
  DiftTracker::Options options;
  options.strict_unlabeled_receivers = true;
  DiftTracker strict(&interp_, policy_, options);
  strict.Install();  // replaces __dift
  RunSource(R"(
    let data = __dift.label({ id: 1 }, "secret");
    let allowed = __dift.check(data, { plain: true });
  )");
  EXPECT_FALSE(Global("allowed").AsBool());
  EXPECT_EQ(strict.violations().size(), 1u);
}

TEST_F(TrackerTest, InvokeChecksArgumentsAgainstInvokeLabeller) {
  RunSource(R"(
    let sent = [];
    let mailer = { send: (to, body) => { sent.push(to); return "ok"; } };
    __dift.label(mailer, "mailerByRecipient");
    let frame = __dift.label("face-frame", "secret");
    // secret -> secret: allowed.
    __dift.invoke(mailer, "send", ["boss", frame]);
    // secret -> public: forbidden, call must be blocked (enforce mode).
    __dift.invoke(mailer, "send", ["intern", frame]);
  )");
  EXPECT_EQ(Global("sent").ToDisplayString(), "[boss]");
  ASSERT_EQ(tracker_->violations().size(), 1u);
  EXPECT_EQ(tracker_->violations()[0].sink, "send");
}

TEST_F(TrackerTest, ReportModeLetsViolatingCallProceed) {
  DiftTracker::Options options;
  options.mode = DiftTracker::Options::Mode::kReport;
  DiftTracker reporter(&interp_, policy_, options);
  reporter.Install();
  RunSource(R"(
    let sent = [];
    let mailer = { send: to => { sent.push(to); } };
    __dift.label(mailer, "mailerByRecipient");
    let frame = __dift.label("x", "secret");
    __dift.invoke(mailer, "send", ["intern", frame]);
  )");
  EXPECT_EQ(Global("sent").ToDisplayString(), "[intern]");  // proceeded
  EXPECT_EQ(reporter.violations().size(), 1u);              // but recorded
}

TEST_F(TrackerTest, InvokeLabelsResultWithArgumentUnion) {
  RunSource(R"(
    let svc = { combine: (a, b) => a + "/" + b };
    let x = __dift.label("x", "secret");
    let out = __dift.invoke(svc, "combine", [x, "plain"]);
    let labels = __dift.labelsOf(out);
    let raw = __dift.unwrap(out);
  )");
  EXPECT_EQ(Global("raw").ToDisplayString(), "x/plain");
  EXPECT_EQ(Global("labels").ToDisplayString(), "[secret]");
}

TEST_F(TrackerTest, InvokeUnwrapsArgumentsForNativeSinks) {
  RunSource(R"(
    let fs = require("fs");
    let frame = __dift.label("pixel-data", "secret");
    __dift.invoke(fs, "writeFileSync", ["/out.bin", frame]);
  )");
  ASSERT_EQ(interp_.io_world().records.size(), 1u);
  // The sink received the raw value, not a box rendering.
  EXPECT_EQ(interp_.io_world().records[0].payload, "pixel-data");
}

TEST_F(TrackerTest, LabelledDataInsideMessageObjectIsCaught) {
  // DeepLabel: a labelled frame nested in msg.payload is still checked.
  RunSource(R"(
    let receiver = __dift.label({ name: "store" }, "public");
    let msg = { payload: __dift.label("face", "secret"), topic: "frames" };
    let allowed = __dift.check(msg, receiver);
  )");
  EXPECT_FALSE(Global("allowed").AsBool());
}

TEST_F(TrackerTest, DynamicPropertyCreationPropagatesToContainer) {
  // The proxy trap (§4.4): properties created at run time fold their labels
  // into the tracked container.
  RunSource(R"(
    let scene = __dift.label({ location: "hall", persons: [] }, "scene");
    let secretFrame = __dift.label({ data: "bytes" }, "secret");
    scene.lastFrame = secretFrame;   // dynamic property, not in the policy
    let labels = __dift.labelsOf(scene);
  )");
  std::string labels = Global("labels").ToDisplayString();
  EXPECT_NE(labels.find("secret"), std::string::npos) << labels;
}

TEST_F(TrackerTest, CompoundConstLabelAndSubsetFlow) {
  RunSource(R"(
    let ab = __dift.label({ v: 1 }, "multi");
    let labels = __dift.labelsOf(ab);
  )");
  EXPECT_EQ(Global("labels").ToDisplayString(), "[A, B]");
}

TEST_F(TrackerTest, DeclassificationViaConstLabeller) {
  // A constant labeller overrides the computed label (§4.3: declassification
  // is a label function that always returns Q).
  RunSource(R"(
    let data = __dift.label({ v: "x" }, "secret");
    __dift.label(data, "public");
    let labels = __dift.labelsOf(data);
  )");
  // Labels accumulate (conservative union); declassification is expressed by
  // checking against the *destination*: public ⊑ secret holds.
  std::string labels = Global("labels").ToDisplayString();
  EXPECT_NE(labels.find("public"), std::string::npos);
}

TEST_F(TrackerTest, UnknownLabellerIsAnError) {
  auto program = ParseProgram("__dift.label({}, \"nope\");");
  ASSERT_TRUE(program.ok());
  Status status = interp_.RunProgram(*program);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nope"), std::string::npos);
}

// A `$fn` labeller must be a function literal. Any other expression — even
// one naming a global function — is rejected with a PolicyError before
// anything runs: the tracker builds labellers with MakeClosure and never
// evaluates policy source.
TEST(TrackerPolicyTest, NonLiteralFnLabellerIsAPolicyError) {
  auto policy = Policy::FromJsonText(R"json({
    "labellers": {
      "byGlobal": { "$fn": "classify" },
      "byCall": { "$fn": "pick()" },
      "literal": { "$fn": "(v) => \"secret\"" }
    },
    "rules": []
  })json");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Interpreter interp;
  DiftTracker tracker(&interp, std::shared_ptr<Policy>(std::move(policy).value().release()));
  tracker.Install();
  auto program = ParseProgram(
      "function classify(v) { return \"secret\"; } function pick() { return classify; }");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(interp.RunProgram(*program).ok());

  for (const char* name : {"byGlobal", "byCall"}) {
    SCOPED_TRACE(name);
    auto labelled = tracker.Label(Value(MakeObject()), name);
    ASSERT_FALSE(labelled.ok());
    EXPECT_EQ(labelled.status().code(), StatusCode::kPolicyError);
    EXPECT_NE(labelled.status().message().find("label function did not evaluate to a function"),
              std::string::npos)
        << labelled.status().message();
  }
  EXPECT_TRUE(tracker.Label(Value(MakeObject()), "literal").ok());
}

TEST_F(TrackerTest, StatsAreCounted) {
  RunSource(R"(
    let a = __dift.label("v", "secret");
    let b = __dift.binaryOp("+", a, "!");
    __dift.check(a, b);
    let o = { f: x => x };
    __dift.invoke(o, "f", [a]);
  )");
  const TrackerStats& stats = tracker_->stats();
  EXPECT_EQ(stats.label_calls, 1u);
  EXPECT_EQ(stats.binary_ops, 1u);
  EXPECT_EQ(stats.checks, 1u);
  EXPECT_EQ(stats.invokes, 1u);
  EXPECT_GE(stats.boxes_created, 1u);
}

TEST_F(TrackerTest, PaperFig2bEndToEnd) {
  // The instrumented FaceRecognizer path of Fig. 2b, driven with two frames:
  // one containing an employee (storable) and one a customer.
  RunSource(R"(
    let stored = [];
    let mailed = [];
    let storage = { send: s => { stored.push("ok"); } };
    let emailSender = { send: s => { mailed.push("ok"); } };
    function analyzeVideoFrame(frame) {
      return { location: "door",
               persons: [frame.isEmployee ? { employeeID: 9, action: "enters" }
                                          : { action: "waits" }] };
    }
    function handle(frame) {
      const scene = __dift.label(analyzeVideoFrame(frame), "scene");
      for (let person of scene.persons) {
        person.description = __dift.binaryOp("+",
            __dift.binaryOp("+", person.action, " at "), scene.location);
      }
      __dift.invoke(emailSender, "send", [scene]);
      __dift.invoke(storage, "send", [scene]);
    }
    handle({ isEmployee: true });
    handle({ isEmployee: false });
  )");
  // The sinks are unlabeled (fail-open default), so both calls proceed; the
  // assertion here is the data-path mechanics of the instrumented code shape.
  EXPECT_EQ(Global("stored").ToDisplayString(), "[ok, ok]");
  EXPECT_EQ(Global("mailed").ToDisplayString(), "[ok, ok]");
}

TEST_F(TrackerTest, StoreWithDisconnectedLabelBlocksLabelledScenes) {
  // A store labelled "public" may not receive employee-labelled scenes:
  // there is no employee -> public rule, so the flow is forbidden and, in
  // enforce mode, the call never happens.
  RunSource(R"(
    let stored = [];
    let store = __dift.label({ send: s => { stored.push(1); } }, "public");
    let sceneEmployee = __dift.label({ persons: [{ employeeID: 2 }] }, "scene");
    __dift.invoke(store, "send", [sceneEmployee]);
  )");
  EXPECT_EQ(Global("stored").ToDisplayString(), "[]");
  EXPECT_GE(tracker_->violations().size(), 1u);
}

TEST_F(TrackerTest, ViolationRenderingIsByteIdenticalToLabelSetToString) {
  // The interned-pool renderings feed the violation report verbatim; they
  // must stay byte-identical to the LabelSet::ToString format so recorded
  // violations and provenance do not change across the interning layer.
  RunSource(R"(
    let data = __dift.label({ v: 1 }, "multi");
    __dift.label(data, "secret");
    let receiver = __dift.label({ sinkish: true }, "public");
    __dift.check(data, receiver, "store");
  )");
  ASSERT_EQ(tracker_->violations().size(), 1u);
  const Violation& violation = tracker_->violations()[0];
  // Label ids follow rules-interning order (secret precedes A and B).
  EXPECT_EQ(violation.data_labels, "{secret, A, B}");
  EXPECT_EQ(violation.data_labels,
            tracker_->DeepLabel(Global("data")).ToString(policy_->space()));
  EXPECT_EQ(violation.receiver_labels, "{public}");
  EXPECT_EQ(violation.receiver_labels,
            tracker_->GetLabel(Global("receiver")).ToString(policy_->space()));
  // Provenance: one attachment event per data label (in label-id order),
  // then the violation itself with the same renderings.
  ASSERT_EQ(violation.provenance.size(), 4u);
  EXPECT_EQ(violation.provenance[0].subject, "secret");
  EXPECT_EQ(violation.provenance[0].detail, "attached 'secret'");
  EXPECT_EQ(violation.provenance[1].subject, "multi");
  EXPECT_EQ(violation.provenance[1].detail, "attached 'A'");
  EXPECT_EQ(violation.provenance[2].subject, "multi");
  EXPECT_EQ(violation.provenance[2].detail, "attached 'B'");
  EXPECT_EQ(violation.provenance[3].detail, "{secret, A, B} cannot flow to {public}");
}

TEST_F(TrackerTest, DeepLabelMemoIsInvalidatedByHeapWrites) {
  // Repeated checks of an unchanged message are answered from the deep-label
  // memo; a plain property write on the (untracked) container — which the
  // tracker never observes directly — must invalidate it.
  RunSource(R"(
    let receiver = __dift.label({ name: "store" }, "public");
    let msg = { topic: "frames", payload: "plain" };
    let before = __dift.check(msg, receiver);
    let beforeAgain = __dift.check(msg, receiver);
    msg.payload = __dift.label("face", "secret");
    let after = __dift.check(msg, receiver);
  )");
  EXPECT_TRUE(Global("before").AsBool());
  EXPECT_TRUE(Global("beforeAgain").AsBool());
  EXPECT_FALSE(Global("after").AsBool());
}

TEST_F(TrackerTest, DeepLabelMemoHitsBetweenUnchangedChecks) {
  RunSource(R"(
    let receiver = __dift.label({ name: "store" }, "secret");
    let msg = { payload: __dift.label("face", "public") };
  )");
  Value msg = Global("msg");
  Value receiver = Global("receiver");
  ASSERT_TRUE(tracker_->Check(msg, receiver, "store").ok());
  uint64_t hits = tracker_->stats().deep_label_memo_hits;
  // No interpreter activity between these checks: every repeat is a memo hit.
  ASSERT_TRUE(tracker_->Check(msg, receiver, "store").ok());
  ASSERT_TRUE(tracker_->Check(msg, receiver, "store").ok());
  EXPECT_EQ(tracker_->stats().deep_label_memo_hits, hits + 2);
  // AttachLabel writes a label slot, which must drop the memo.
  tracker_->AttachLabel(msg, LabelSet({policy_->space().Intern("employee")}));
  hits = tracker_->stats().deep_label_memo_hits;
  LabelSet after = tracker_->DeepLabel(msg);
  EXPECT_EQ(tracker_->stats().deep_label_memo_hits, hits);  // recomputed
  EXPECT_TRUE(after.Contains(*policy_->space().Find("employee")));
}

TEST_F(TrackerTest, ProxyTrapFoldsLabelsAfterTrackerDestruction) {
  // The trap owns the policy, not the tracker: an object that outlives its
  // tracker can still be written, and the write still folds the value's
  // labels into the object's own.
  ObjectPtr object = MakeObject();
  object->Set("v", Value(1.0));
  Value secret;
  {
    DiftTracker ephemeral(&interp_, policy_);
    ASSERT_TRUE(ephemeral.Label(Value(object), "public").ok());
    auto boxed = ephemeral.Label(Value("x"), "secret");
    ASSERT_TRUE(boxed.ok());
    secret = *boxed;
  }
  object->Set("later", secret);
  LabelSet labels = tracker_->GetLabel(Value(object));  // shallow: no property walk
  EXPECT_TRUE(labels.Contains(*policy_->space().Find("public")));
  EXPECT_TRUE(labels.Contains(*policy_->space().Find("secret")));
}

TEST_F(TrackerTest, InvokeLabellerKeepsItsTargetAlive) {
  // An $invoke registration is keyed on its target's address. Were the target
  // freed, a function allocated at the same address would inherit the
  // labeller.
  auto spec = std::make_shared<LabellerSpec>();
  spec->kind = LabellerSpec::Kind::kInvoke;
  spec->fn_source = "(obj, args) => \"secret\"";
  policy_->AddLabeller("callTag", spec);
  NativeFn noop = [](Interpreter&, const Value&, std::vector<Value>&) -> Result<Value> {
    return Value::Undefined();
  };
  const void* old_address = nullptr;
  {
    FunctionPtr labelled = MakeNativeFunction("labelled", noop);
    old_address = labelled.get();
    ASSERT_TRUE(tracker_->Label(Value(labelled), "callTag").ok());
  }
  std::vector<FunctionPtr> allocated;
  FunctionPtr recycled;
  for (int i = 0; i < 4096 && recycled == nullptr; ++i) {
    FunctionPtr fn = MakeNativeFunction("fresh", noop);
    if (fn.get() == old_address) {
      recycled = fn;
    }
    allocated.push_back(std::move(fn));
  }
  if (recycled != nullptr) {
    ObjectPtr holder = MakeObject();
    holder->Set("run", Value(recycled));
    uint64_t evals = tracker_->stats().labeller_fn_evals;
    ASSERT_TRUE(tracker_->Invoke(Value(holder), "run", {}).ok());
    EXPECT_EQ(tracker_->stats().labeller_fn_evals, evals)
        << "a function at a recycled address inherited the $invoke labeller";
  }
  EXPECT_TRUE(recycled == nullptr) << "the registration did not keep its target alive";
}

}  // namespace
}  // namespace turnstile
