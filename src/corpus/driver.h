// Harness that runs corpus applications: original, selectively-managed or
// exhaustively-managed (§6.2's three versions), feeding generated workload
// messages and measuring per-message processing cost.
#ifndef TURNSTILE_SRC_CORPUS_DRIVER_H_
#define TURNSTILE_SRC_CORPUS_DRIVER_H_

#include <memory>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/dift/tracker.h"
#include "src/flow/engine.h"
#include "src/ifc/policy.h"
#include "src/interp/interp.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace turnstile {

// kRoundTrip is kSelective with the instrumented tree printed to source,
// re-parsed and re-resolved before loading — the deployment path, where the
// rewritten app ships as text rather than as an in-memory AST.
enum class AppVersion { kOriginal, kSelective, kExhaustive, kRoundTrip };

// A live, runnable instance of a corpus application.
class AppRuntime {
 public:
  // Parses, (optionally) analyzes + instruments, loads the module into a
  // fresh interpreter/flow engine, instantiates the flow, and installs the
  // framework-injected runtime objects bucket-D apps rely on. `tier` selects the
  // execution tier; the default is the production bytecode VM, and the two
  // oracles are for differential tests. `context` binds the instance to an
  // explicit RuntimeContext (null = the process default); it must outlive the
  // returned runtime. `shared_policy` supplies an already-parsed policy to
  // instrument against instead of re-parsing app.policy_json — the fleet
  // runtime passes one Policy to every same-app instance on a shard so they
  // share its LabelSetPool and RuleGraph memo caches. Sharing is safe only
  // among instances driven by the same thread (Policy caches are not
  // synchronized); ignored for kOriginal, which carries no policy.
  static Result<std::unique_ptr<AppRuntime>> Create(const CorpusApp& app, AppVersion version,
                                                    ExecTier tier = ExecTier::kBytecode,
                                                    RuntimeContext* context = nullptr,
                                                    std::shared_ptr<Policy> shared_policy = nullptr);

  // Delivers one generated message through the app's entry point and drains
  // the event loop. Returns an error if the app throws. Equivalent to
  // GenerateMessage + InjectValue.
  Status DriveMessage(Rng* rng, int seq);

  // Delivers an already-built message value through the app's entry point and
  // drains the event loop. Node entries go through the flow engine's mailbox
  // (PostInput + PumpMailbox), so a delivery arriving while this instance is
  // mid-pump — e.g. routed in by a fleet terminal sink — queues instead of
  // re-entering the interpreter.
  Status InjectValue(Value msg);

  // Number of statements/expressions evaluated so far — the deterministic
  // work metric.
  uint64_t eval_count() const { return interp_->eval_count(); }

  Interpreter& interp() { return *interp_; }
  FlowEngine& engine() { return *engine_; }
  DiftTracker* tracker() { return tracker_.get(); }  // null for kOriginal
  // The policy this instance was instrumented against (null for kOriginal).
  // Same-app instances created with a shared_policy return the same pointer.
  const std::shared_ptr<Policy>& policy() const { return policy_; }
  const CorpusApp& app() const { return *app_; }
  // Root of the program actually loaded (post-instrumentation; for kRoundTrip
  // the re-parsed tree). Compiled-chunk caches live on its nodes, so tools
  // can disassemble exactly what this runtime executes.
  const NodePtr& program_root() const { return program_root_; }

 private:
  AppRuntime() = default;

  const CorpusApp* app_ = nullptr;
  std::unique_ptr<Interpreter> interp_;
  std::unique_ptr<FlowEngine> engine_;
  std::shared_ptr<Policy> policy_;
  std::unique_ptr<DiftTracker> tracker_;
  NodePtr program_root_;
  Json message_template_;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_CORPUS_DRIVER_H_
