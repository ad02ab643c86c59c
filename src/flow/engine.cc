#include "src/flow/engine.h"

#include "src/lang/parser.h"
#include "src/runtime/context.h"
#include "src/support/logging.h"

namespace turnstile {

namespace {
Value ArgAt(const std::vector<Value>& args, size_t i) {
  return i < args.size() ? args[i] : Value::Undefined();
}
}  // namespace

FlowEngine::FlowEngine(Interpreter* interp) : interp_(interp) {
  // Observability handles come from the interpreter's RuntimeContext, so an
  // engine built on an isolated instance reports into that instance's sinks.
  RuntimeContext& context = interp->context();
  event_log_ = &context.event_log();
  obs::Metrics& metrics = context.metrics();
  metric_routed_ = metrics.GetCounter("flow.messages_routed");
  metric_terminal_ = metrics.GetCounter("flow.terminal_sends");
  metric_injects_ = metrics.GetCounter("flow.injects");
  metric_node_inputs_ = metrics.GetCounter("flow.node_inputs");
  red_ = MakeRedGlobal();
  interp_->DefineGlobal("RED", Value(red_));
}

ObjectPtr FlowEngine::MakeRedGlobal() {
  ObjectPtr red = MakeObject();
  red->debug_tag = "RED";
  ObjectPtr nodes = MakeObject();
  FlowEngine* engine = this;

  nodes->Set("createNode", Value(MakeNativeFunction(
      "RED.nodes.createNode",
      [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value target = Unbox(ArgAt(args, 0));
        if (target.IsObject()) {
          target.AsObject()->Set("__red", Value(true));
          Value config = Unbox(ArgAt(args, 1));
          if (config.IsObject()) {
            target.AsObject()->Set("config", config);
          }
        }
        return Value::Undefined();
      })));

  nodes->Set("registerType", Value(MakeNativeFunction(
      "RED.nodes.registerType",
      [engine](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value name = Unbox(ArgAt(args, 0));
        Value ctor = Unbox(ArgAt(args, 1));
        if (!name.IsString() || !ctor.IsFunction()) {
          return Interpreter::TypeError("registerType(name, constructor)");
        }
        engine->types_[name.AsString()] = ctor.AsFunction();
        return Value::Undefined();
      })));

  red->Set("nodes", Value(nodes));
  // RED.httpNode: an emitter the runtime wires up dynamically — exactly the
  // object whose flows static analysis cannot see (§6.1).
  red->Set("httpNode", Value(MakeEmitterObject(*interp_, "red.httpNode")));
  ObjectPtr util = MakeObject();
  util->Set("cloneMessage", Value(MakeNativeFunction(
      "RED.util.cloneMessage",
      [](Interpreter&, const Value&, std::vector<Value>& args) -> Result<Value> {
        Value msg = Unbox(ArgAt(args, 0));
        if (!msg.IsObject()) {
          return msg;
        }
        ObjectPtr copy = MakeObject();
        for (Atom key : msg.AsObject()->insertion_order) {
          if (msg.AsObject()->Has(key)) {
            copy->Set(key, msg.AsObject()->Get(key));
          }
        }
        return Value(copy);
      })));
  red->Set("util", Value(util));
  return red;
}

Status FlowEngine::LoadModule(const std::string& source, const std::string& source_name) {
  TURNSTILE_ASSIGN_OR_RETURN(program, ParseProgram(source, source_name));
  return LoadModule(program);
}

Status FlowEngine::LoadModule(const Program& program) {
  // Provide a fresh `module` object, run the module body, then call
  // module.exports(RED).
  ObjectPtr module = MakeObject();
  module->debug_tag = "module";
  interp_->DefineGlobal("module", Value(module));
  TURNSTILE_RETURN_IF_ERROR(interp_->RunProgram(program));
  Value exports = module->Get("exports");
  exports = Unbox(exports);
  if (exports.IsFunction()) {
    TURNSTILE_ASSIGN_OR_RETURN(
        unused, interp_->CallFunction(exports.AsFunction(), Value::Undefined(), {Value(red_)}));
    (void)unused;
  }
  return Status::Ok();
}

ObjectPtr FlowEngine::MakeNodeObject(const std::string& id,
                                     const std::vector<std::string>& wires) {
  ObjectPtr node = MakeEmitterObject(*interp_, "rednode");
  node->Set("id", Value(id));
  FlowEngine* engine = this;

  node->Set("send", Value(MakeNativeFunction(
      "node.send", [engine, id, wires](Interpreter& in, const Value&,
                                       std::vector<Value>& args) -> Result<Value> {
        Value msg = ArgAt(args, 0);
        // Multi-message send: an array fans out each element to every wire.
        std::vector<Value> messages;
        Value unboxed = Unbox(msg);
        if (unboxed.IsArray()) {
          messages = unboxed.AsArray()->elements;
        } else {
          messages.push_back(msg);
        }
        if (wires.empty()) {
          engine->terminal_sends_ += static_cast<int>(messages.size());
          engine->metric_terminal_->Increment(messages.size());
          obs::EventLog& log = *engine->event_log_;
          if (log.enabled()) {
            // A send with no outgoing wires is a flow output: the message
            // leaves the flow graph, which the log records as one journey
            // send plus a sink write per fanned-out message (matching the
            // counter above).
            log.Record(obs::EventKind::kNodeSend, id, "(terminal)", in.VirtualNow());
            for (size_t i = 0; i < messages.size(); ++i) {
              obs::Event event;
              event.kind = obs::EventKind::kSinkWrite;
              event.subject = id;
              event.rule = "terminal";
              log.Record(std::move(event));
            }
          }
          if (engine->terminal_sink_) {
            // Fired after the engine's own terminal accounting so a wired
            // sink never changes what this instance records about itself.
            const uint64_t trace_id = engine->event_log_->current_trace();
            for (const Value& m : messages) {
              engine->terminal_sink_(id, m, trace_id);
            }
          }
          return Value::Undefined();
        }
        for (const std::string& target_id : wires) {
          auto it = engine->nodes_.find(target_id);
          if (it == engine->nodes_.end()) {
            continue;
          }
          for (const Value& m : messages) {
            if (engine->event_log_->enabled()) {
              engine->event_log_->Record(obs::EventKind::kNodeSend, id, target_id,
                                         in.VirtualNow());
            }
            in.EmitEvent(it->second, "input", {m});
            ++engine->messages_routed_;
            engine->metric_routed_->Increment();
          }
        }
        return Value::Undefined();
      })));

  auto noop = [](Interpreter&, const Value&, std::vector<Value>&) -> Result<Value> {
    return Value::Undefined();
  };
  node->Set("status", Value(MakeNativeFunction("node.status", noop)));
  auto log_fn = [id](Interpreter& in, const Value&, std::vector<Value>& args) -> Result<Value> {
    in.io_world().Record(in.VirtualNow(), "console", "node.log", id,
                         UnboxDeep(ArgAt(args, 0)).ToDisplayString());
    return Value::Undefined();
  };
  node->Set("log", Value(MakeNativeFunction("node.log", log_fn)));
  node->Set("warn", Value(MakeNativeFunction("node.warn", log_fn)));
  node->Set("error", Value(MakeNativeFunction("node.error", log_fn)));

  // Observability listener: registered before the node constructor runs, so
  // it fires ahead of the application's own "input" handlers and marks the
  // message entering the node on its current trace.
  interp_->AddListener(
      node, "input",
      MakeNativeFunction("obs.node_enter",
                         [engine, id](Interpreter& in, const Value&,
                                      std::vector<Value>&) -> Result<Value> {
                           engine->metric_node_inputs_->Increment();
                           if (engine->event_log_->enabled()) {
                             // Instant marker: the handler's duration is the
                             // enclosing turn's interval; this pins node
                             // identity inside it.
                             engine->event_log_->Record(obs::EventKind::kNodeEnter, id, "",
                                                        in.VirtualNow());
                           }
                           return Value::Undefined();
                         }));
  return node;
}

Status FlowEngine::InstantiateFlow(const Json& flow) {
  if (!flow.is_array()) {
    return InvalidArgumentError("flow spec must be an array of node objects");
  }
  // Per-flow accessors restart from zero on every instantiation; the
  // process-wide cumulative totals live in the metrics registry.
  messages_routed_ = 0;
  terminal_sends_ = 0;
  // First pass: create node objects so wiring targets exist.
  for (const Json& spec : flow.array_items()) {
    std::string id = spec.GetString("id");
    if (id.empty()) {
      return InvalidArgumentError("flow node needs an id");
    }
    std::vector<std::string> wires;
    for (const Json& wire : spec["wires"].is_array() ? spec["wires"].array_items()
                                                     : JsonArray{}) {
      if (wire.is_string()) {
        wires.push_back(wire.string_value());
      }
    }
    wires_[id] = wires;
    nodes_[id] = MakeNodeObject(id, wires);
  }
  // Second pass: run constructors.
  for (const Json& spec : flow.array_items()) {
    std::string id = spec.GetString("id");
    std::string type = spec.GetString("type");
    auto ctor = types_.find(type);
    if (ctor == types_.end()) {
      return NotFoundError("flow references unregistered node type '" + type + "'");
    }
    // Build the config object from the spec.
    ObjectPtr config = MakeObject();
    config->Set("id", Value(id));
    const Json& config_json = spec["config"];
    if (config_json.is_object()) {
      for (const auto& [key, value] : config_json.object_items()) {
        if (value.is_string()) {
          config->Set(key, Value(value.string_value()));
        } else if (value.is_number()) {
          config->Set(key, Value(value.number_value()));
        } else if (value.is_bool()) {
          config->Set(key, Value(value.bool_value()));
        }
      }
    }
    TURNSTILE_ASSIGN_OR_RETURN(
        unused, interp_->CallFunction(ctor->second, Value(nodes_[id]), {Value(config)}));
    (void)unused;
  }
  TURNSTILE_LOG(Debug) << "instantiated flow with " << nodes_.size() << " node(s)";
  return Status::Ok();
}

Status FlowEngine::InjectInput(const std::string& node_id, Value msg) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    return NotFoundError("unknown flow node '" + node_id + "'");
  }
  metric_injects_->Increment();
  // Each injected message opens a fresh trace; EmitEvent captures the current
  // trace id into the task, so the whole downstream cascade attributes here.
  const obs::TraceContext previous = event_log_->current();
  event_log_->StartTrace(interp_->context().atoms().Intern(node_id));
  // StartTrace's kInject is the log's latest event (seq 0 when the log is
  // off); the trace views stretch it over the message's whole cascade.
  obs::ScopedInterval inject(*event_log_, event_log_->recorded());
  interp_->EmitEvent(it->second, "input", {std::move(msg)});
  event_log_->SetCurrent(previous);
  return Status::Ok();
}

void FlowEngine::PostInput(const std::string& node_id, Value msg) {
  mailbox_.push_back(PendingInput{node_id, std::move(msg)});
}

Status FlowEngine::PumpMailbox() {
  if (pumping_) {
    // Re-entrant call (a node handler or terminal sink posted more input):
    // the outermost pump is still draining and will pick the new entry up.
    return Status::Ok();
  }
  pumping_ = true;
  Status status = Status::Ok();
  while (!mailbox_.empty()) {
    PendingInput next = std::move(mailbox_.front());
    mailbox_.pop_front();
    // Same sequence DriveMessage always ran: inject, then run the event loop
    // to quiescence before the next input starts.
    Status inject = InjectInput(next.node_id, std::move(next.msg));
    if (!inject.ok() && status.ok()) {
      status = inject;
      continue;
    }
    Status loop = interp_->RunEventLoop();
    if (!loop.ok() && status.ok()) {
      status = loop;
    }
  }
  pumping_ = false;
  return status;
}

ObjectPtr FlowEngine::FindNode(const std::string& node_id) const {
  auto it = nodes_.find(node_id);
  return it == nodes_.end() ? nullptr : it->second;
}

std::vector<std::string> FlowEngine::registered_types() const {
  std::vector<std::string> out;
  for (const auto& [name, ctor] : types_) {
    (void)ctor;
    out.push_back(name);
  }
  return out;
}

}  // namespace turnstile
