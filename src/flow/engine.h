// RedFlow — the Node-RED-like flow framework substrate (§5).
//
// Node-RED applications are modules of the shape
//
//   module.exports = function(RED) {
//     function MyNode(config) {
//       RED.nodes.createNode(this, config);
//       let node = this;
//       node.on("input", msg => { ...; node.send(out); });
//     }
//     RED.nodes.registerType("my-type", MyNode);
//   };
//
// and a *flow* instantiates registered node types and wires them into a DAG.
// RedFlow executes such modules on the MiniScript interpreter: it provides
// the RED global, instantiates flows from a JSON spec, and routes node.send()
// messages along wires through the interpreter's event loop. Instrumented
// and original modules run identically (the engine knows nothing about
// __dift), which is the non-invasiveness property the case study (§5)
// demonstrates.
#ifndef TURNSTILE_SRC_FLOW_ENGINE_H_
#define TURNSTILE_SRC_FLOW_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/interp/interp.h"
#include "src/obs/metrics.h"
#include "src/obs/event_log.h"
#include "src/support/json.h"
#include "src/support/status.h"

namespace turnstile {

class FlowEngine {
 public:
  explicit FlowEngine(Interpreter* interp);

  // Parses and executes a Node-RED module, then calls module.exports(RED).
  // Node types registered via RED.nodes.registerType become available to
  // InstantiateFlow. `source_name` feeds diagnostics and policy file
  // matching.
  Status LoadModule(const std::string& source, const std::string& source_name);

  // Same, for an already-parsed (e.g. instrumented) program.
  Status LoadModule(const Program& program);

  // Instantiates a flow: [{ "id": "n1", "type": "camera-in",
  //                         "config": {...}, "wires": ["n2"] }, ...].
  // Constructors run immediately; event handlers land in the event loop.
  Status InstantiateFlow(const Json& flow);

  // Enqueues an input message for a node (the Inject-node equivalent).
  // Call interp->RunEventLoop() to process. Each injected message starts a
  // new trace in the context's event log whose id follows the message across
  // wires and event-loop turns.
  Status InjectInput(const std::string& node_id, Value msg);

  // --- mailbox-driven entry (the fleet runtime's re-entrant path) ------------

  // Appends an input for `node_id` to the engine's own mailbox without
  // running anything. Unknown node ids are reported when the mailbox is
  // pumped, not here.
  void PostInput(const std::string& node_id, Value msg);

  // Drains the mailbox: each queued input is injected (InjectInput) and the
  // interpreter event loop runs to quiescence before the next input starts —
  // exactly the sequence DriveMessage always performed, now behind one
  // re-entrant entry point. A PostInput issued while a pump is already
  // running (from a node handler, a module callback, or a terminal sink) is
  // simply appended and drained by the *outermost* pump; the inner call
  // returns immediately instead of re-entering the event loop.
  Status PumpMailbox();

  size_t mailbox_depth() const { return mailbox_.size(); }

  // Called for every message sent from a node with no outgoing wires (a flow
  // output), after the engine records its own terminal accounting (metrics,
  // trace, audit sink-write). The fleet runtime uses this to route one app's
  // outputs into another app instance's mailbox. The hook runs on the
  // engine's own thread mid-event-loop: it must not re-enter this
  // interpreter; enqueue (PostInput on another engine, or a shard mailbox
  // post) and return. `trace_id` is the context-local trace the send is
  // attributed to — the fleet runtime folds it into the outgoing
  // FleetTraceContext so cross-shard hops stitch.
  using TerminalSink =
      std::function<void(const std::string& node_id, const Value& msg, uint64_t trace_id)>;
  void set_terminal_sink(TerminalSink sink) { terminal_sink_ = std::move(sink); }

  // The node instance object (for assertions), or nullptr.
  ObjectPtr FindNode(const std::string& node_id) const;

  // Registered node type names.
  std::vector<std::string> registered_types() const;

  // Total node.send() deliveries routed along wires since the last
  // InstantiateFlow (thin reads of the per-engine slice; the cumulative
  // process-wide totals live in Metrics::Global() as "flow.messages_routed" /
  // "flow.terminal_sends").
  int messages_routed() const { return messages_routed_; }
  // Messages sent from nodes with no outgoing wires (flow outputs).
  int terminal_sends() const { return terminal_sends_; }

 private:
  ObjectPtr MakeRedGlobal();
  ObjectPtr MakeNodeObject(const std::string& id, const std::vector<std::string>& wires);

  Interpreter* interp_;
  ObjectPtr red_;                                       // the RED global
  std::unordered_map<std::string, FunctionPtr> types_;  // type -> constructor
  std::unordered_map<std::string, ObjectPtr> nodes_;    // id -> instance
  std::unordered_map<std::string, std::vector<std::string>> wires_;
  int messages_routed_ = 0;
  int terminal_sends_ = 0;

  // The engine mailbox (PostInput/PumpMailbox) and its re-entrancy latch.
  struct PendingInput {
    std::string node_id;
    Value msg;
  };
  std::deque<PendingInput> mailbox_;
  bool pumping_ = false;
  TerminalSink terminal_sink_;

  // Observability handles (resolved once in the constructor).
  obs::EventLog* event_log_ = nullptr;
  obs::Counter* metric_routed_ = nullptr;
  obs::Counter* metric_terminal_ = nullptr;
  obs::Counter* metric_injects_ = nullptr;
  obs::Counter* metric_node_inputs_ = nullptr;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_FLOW_ENGINE_H_
