#include "src/corpus/driver.h"

#include "src/analysis/analyzer.h"
#include "src/flow/workload.h"
#include "src/instrument/instrumentor.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/lang/resolve.h"
#include "src/obs/event_log.h"
#include "src/runtime/context.h"

namespace turnstile {

namespace {

Value ArgAt(const std::vector<Value>& args, size_t i) {
  return i < args.size() ? args[i] : Value::Undefined();
}

// A generic injected sink object: obj.<any-method>(args) records to the
// "injected" channel. Used to stand in for runtime-provided endpoints
// (RED.settings.uplink, node.transport, pagers, dashboards, ...).
ObjectPtr MakeInjectedSink(Interpreter& interp, const std::string& tag,
                           std::initializer_list<const char*> methods) {
  ObjectPtr sink = MakeObject();
  sink->debug_tag = tag;
  for (const char* method : methods) {
    std::string op = method;
    FunctionPtr native = MakeNativeFunction(
        tag + "." + op,
        [tag, op](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
          std::string payload;
          for (const Value& arg : args) {
            if (!payload.empty()) {
              payload += " ";
            }
            payload += UnboxDeep(arg).ToDisplayString();
          }
          in.io_world().Record(in.VirtualNow(), "injected", op, tag, payload);
          return Value::Undefined();
        });
    native->is_io_sink = true;
    sink->Set(op, Value(native));
  }
  return sink;
}

// Installs the runtime-injected framework objects that bucket-D applications
// use. In real Node-RED these are assigned by the hosting runtime after
// deploy — which is exactly why static analysis cannot type them.
void InstallRuntimeInjections(Interpreter& interp) {
  Value* red_slot = interp.global_env()->Lookup("RED");
  if (red_slot == nullptr || !red_slot->IsObject()) {
    return;
  }
  ObjectPtr red = red_slot->AsObject();
  ObjectPtr settings = MakeObject();
  settings->debug_tag = "RED.settings";
  settings->Set("uplink", Value(MakeInjectedSink(interp, "settings.uplink", {"push", "send"})));
  settings->Set("sharedBus", Value(MakeInjectedSink(interp, "settings.sharedBus", {"emitTo"})));
  settings->Set("dashboard", Value(MakeInjectedSink(interp, "settings.dashboard", {"update"})));
  settings->Set("blackboard", Value(MakeInjectedSink(interp, "settings.blackboard", {"post"})));
  settings->Set("pager", Value(MakeInjectedSink(interp, "settings.pager", {"page"})));
  red->Set("settings", Value(settings));
}

// Builds the per-request `res` object handed to red.httpNode handlers.
Value MakeHttpResponse(Interpreter& interp) {
  ObjectPtr res = MakeObject();
  res->debug_tag = "httpNode.res";
  for (const char* method : {"end", "write", "send"}) {
    std::string op = method;
    FunctionPtr native = MakeNativeFunction(
        "res." + op, [op](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
          in.io_world().Record(in.VirtualNow(), "http", "response", op,
                               UnboxDeep(ArgAt(args, 0)).ToDisplayString());
          return Value::Undefined();
        });
    native->is_io_sink = true;
    res->Set(op, Value(native));
  }
  return Value(res);
}

}  // namespace

Result<std::unique_ptr<AppRuntime>> AppRuntime::Create(const CorpusApp& app, AppVersion version,
                                                       ExecTier tier,
                                                       RuntimeContext* context,
                                                       std::shared_ptr<Policy> shared_policy) {
  RuntimeContext& ctx = context != nullptr ? *context : RuntimeContext::Default();
  auto runtime = std::unique_ptr<AppRuntime>(new AppRuntime());
  runtime->app_ = &app;
  // Stamp subsequent event-log entries with the app under drive (cheap
  // no-op when the name is unchanged; harmless when the log is disabled).
  ctx.event_log().set_app(app.name);
  runtime->interp_ = std::make_unique<Interpreter>(ctx);
  // Everything built below (flow nodes, injected sinks, the tracker's bridge
  // objects) belongs to this instance's heap and is freed with it.
  Heap::Scope heap_scope(&runtime->interp_->heap());
  runtime->interp_->set_exec_tier(tier);
  runtime->engine_ = std::make_unique<FlowEngine>(runtime->interp_.get());

  TURNSTILE_ASSIGN_OR_RETURN(message_template, Json::Parse(app.message_template));
  runtime->message_template_ = message_template;

  TURNSTILE_ASSIGN_OR_RETURN(program, ParseProgram(app.source, app.name + ".js"));

  if (version == AppVersion::kOriginal) {
    runtime->program_root_ = program.root;
    TURNSTILE_RETURN_IF_ERROR(runtime->engine_->LoadModule(program));
  } else {
    if (shared_policy != nullptr) {
      runtime->policy_ = std::move(shared_policy);
    } else {
      TURNSTILE_ASSIGN_OR_RETURN(policy, Policy::FromJsonText(app.policy_json));
      runtime->policy_ = std::shared_ptr<Policy>(std::move(policy).release());
    }
    TURNSTILE_ASSIGN_OR_RETURN(analysis, AnalyzeProgram(program));
    InstrumentMode mode = version == AppVersion::kExhaustive ? InstrumentMode::kExhaustive
                                                             : InstrumentMode::kSelective;
    TURNSTILE_ASSIGN_OR_RETURN(instrumented,
                               InstrumentProgram(program, *runtime->policy_, mode, &analysis));
    // Report-only mode: the performance evaluation measures tracking cost,
    // not enforcement aborts (the generated placeholder policies are
    // violation-free by construction).
    DiftTracker::Options options;
    options.mode = DiftTracker::Options::Mode::kReport;
    runtime->tracker_ = std::make_unique<DiftTracker>(runtime->interp_.get(), runtime->policy_,
                                                      options);
    runtime->tracker_->Install();
    if (version == AppVersion::kRoundTrip) {
      std::string printed = PrintProgram(instrumented.program);
      TURNSTILE_ASSIGN_OR_RETURN(reparsed, ParseProgram(printed, app.name + ".printed.js"));
      ResolveProgram(reparsed);
      runtime->program_root_ = reparsed.root;
      TURNSTILE_RETURN_IF_ERROR(runtime->engine_->LoadModule(reparsed));
    } else {
      runtime->program_root_ = instrumented.program.root;
      TURNSTILE_RETURN_IF_ERROR(runtime->engine_->LoadModule(instrumented.program));
    }
  }

  TURNSTILE_ASSIGN_OR_RETURN(flow, Json::Parse(app.flow_json));
  if (flow.is_array() && !flow.array_items().empty()) {
    TURNSTILE_RETURN_IF_ERROR(runtime->engine_->InstantiateFlow(flow));
  }
  InstallRuntimeInjections(*runtime->interp_);
  // Inject node.transport on every instantiated flow node (bucket D16).
  for (const Json& spec : flow.is_array() ? flow.array_items() : JsonArray{}) {
    ObjectPtr node = runtime->engine_->FindNode(spec.GetString("id"));
    if (node != nullptr) {
      node->Set("transport",
                Value(MakeInjectedSink(*runtime->interp_, "node.transport", {"send"})));
    }
  }
  // Settle module-load-time async activity (socket connects, stream chunks).
  TURNSTILE_RETURN_IF_ERROR(runtime->interp_->RunEventLoop());
  return runtime;
}

Status AppRuntime::DriveMessage(Rng* rng, int seq) {
  return InjectValue(GenerateMessage(message_template_, rng, seq));
}

Status AppRuntime::InjectValue(Value msg) {
  // A message built outside this instance (a materialized wire payload) is
  // untracked; adopt it, so a program that stores it into itself
  // (`msg.self = msg`) still leaves nothing behind at teardown.
  Heap::Scope heap_scope(&interp_->heap());
  interp_->heap().Adopt(msg);
  if (app_->entry_kind == "node") {
    // Mailbox-driven: if this instance is already pumping (the message was
    // routed in mid-flow by a terminal sink), the post queues and the
    // outermost pump drains it; otherwise this pumps to quiescence, which is
    // byte-identical to the historical InjectInput + RunEventLoop sequence.
    engine_->PostInput(app_->entry_ref, std::move(msg));
    Status status = engine_->PumpMailbox();
    if (tracker_ != nullptr) {
      tracker_->PublishMetrics();
    }
    return status;
  }
  if (app_->entry_kind == "emitter") {
    auto it = interp_->io_world().emitters.find(app_->entry_ref);
    if (it == interp_->io_world().emitters.end() || it->second.empty()) {
      return NotFoundError(app_->name + ": no emitter tagged " + app_->entry_ref);
    }
    const ObjectPtr& emitter = it->second.front();
    if (app_->entry_ref == "red.httpNode") {
      // HTTP entry: handler receives (req, res).
      interp_->EmitEvent(emitter, app_->entry_event, {msg, MakeHttpResponse(*interp_)});
    } else if (app_->entry_event == "message") {
      // MQTT-style: (topic, payload).
      Value payload = msg.IsObject() ? msg.AsObject()->Get("payload") : msg;
      interp_->EmitEvent(emitter, app_->entry_event, {Value("inbound/topic"), payload});
    } else {
      // Socket/stream style: the payload value itself.
      Value payload =
          msg.IsObject() && msg.AsObject()->Has("payload") ? msg.AsObject()->Get("payload") : msg;
      interp_->EmitEvent(emitter, app_->entry_event, {payload});
    }
  } else {
    return Status::Ok();  // no entry point (bucket E utility scripts)
  }
  Status status = interp_->RunEventLoop();
  if (tracker_ != nullptr) {
    // Flush per-op tracker stats into the "dift.*" registry counters at
    // message granularity — off the per-op hot path.
    tracker_->PublishMetrics();
  }
  return status;
}

}  // namespace turnstile
