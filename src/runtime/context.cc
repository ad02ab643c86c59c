#include "src/runtime/context.h"

namespace turnstile {

RuntimeContext& RuntimeContext::Default() {
  static RuntimeContext* instance = new RuntimeContext();  // never destroyed
  return *instance;
}

RuntimeContext::RuntimeContext() {
  is_default_ = true;
  atoms_ = &AtomTable::Global();
  metrics_ = &obs::Metrics::Global();
  event_log_ = &obs::EventLog::Global();
  profiler_ = &obs::Profiler::Global();
}

RuntimeContext::RuntimeContext(Isolated) {
  atoms_ = &AtomTable::Global();
  owned_metrics_ = std::make_unique<obs::Metrics>();
  owned_event_log_ = std::make_unique<obs::EventLog>(owned_metrics_.get());
  owned_profiler_ = std::make_unique<obs::Profiler>(owned_metrics_.get());
  metrics_ = owned_metrics_.get();
  event_log_ = owned_event_log_.get();
  profiler_ = owned_profiler_.get();
}

std::unique_ptr<RuntimeContext> RuntimeContext::CreateIsolated() {
  return std::unique_ptr<RuntimeContext>(new RuntimeContext(Isolated{}));
}

void RuntimeContext::ApplyEnvObsConfig() {
  // Environment variables configure the process-default obs stack only; an
  // isolated context never aliases it, so there is nothing to apply.
  if (is_default_) {
    obs::ApplyEnvObsConfig();
  }
}

}  // namespace turnstile
