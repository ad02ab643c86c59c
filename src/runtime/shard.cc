#include "src/runtime/shard.h"

#include <chrono>
#include <utility>

#include "src/runtime/fleet.h"
#include "src/support/logging.h"

namespace turnstile {

namespace {
thread_local Shard* g_current_shard = nullptr;
}  // namespace

// --- ShardMailbox ------------------------------------------------------------

bool ShardMailbox::Push(FleetEnvelope env, bool bounded) {
  std::unique_lock<std::mutex> lock(mu_);
  if (bounded) {
    if (wait_hist_ != nullptr && (closed_ || queue_.size() >= capacity_)) {
      // Blocked admission: measure the backpressure stall. The unblocked
      // path skips the clock entirely so the happy case stays two loads.
      const auto wait_start = std::chrono::steady_clock::now();
      not_full_.wait(lock, [this] { return closed_ || queue_.size() < capacity_; });
      const std::chrono::duration<double> stalled =
          std::chrono::steady_clock::now() - wait_start;
      wait_hist_->Observe(stalled.count());
    } else {
      not_full_.wait(lock, [this] { return closed_ || queue_.size() < capacity_; });
    }
  }
  if (closed_) {
    return false;
  }
  // Stamp after admission so queue latency excludes the bounded wait (that
  // stall is its own histogram).
  env.enqueued_at = std::chrono::steady_clock::now();
  queue_.push_back(std::move(env));
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
  }
  not_empty_.notify_one();
  return true;
}

bool ShardMailbox::PopAll(std::vector<FleetEnvelope>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) {
    return false;  // closed and drained
  }
  while (!queue_.empty()) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(0);
  }
  not_full_.notify_all();
  return true;
}

void ShardMailbox::BindStats(obs::Gauge* depth, obs::Histogram* wait) {
  std::lock_guard<std::mutex> lock(mu_);
  depth_gauge_ = depth;
  wait_hist_ = wait;
}

void ShardMailbox::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

size_t ShardMailbox::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

// --- Shard -------------------------------------------------------------------

Shard::Shard(FleetRuntime* fleet, int index, size_t mailbox_capacity)
    : fleet_(fleet), index_(index), mailbox_(mailbox_capacity) {
  shard_context_ = RuntimeContext::CreateIsolated();
  obs::Metrics& metrics = shard_context_->metrics();
  depth_gauge_ = metrics.GetGauge("shard.mailbox_depth");
  in_flight_gauge_ = metrics.GetGauge("shard.in_flight");
  wait_hist_ = metrics.GetHistogram("shard.enqueue_wait_seconds");
  queue_hist_ = metrics.GetHistogram("shard.queue_seconds");
  wire_in_ = metrics.GetCounter("shard.wire_in");
  wire_out_ = metrics.GetCounter("shard.wire_out");
  mailbox_.BindStats(depth_gauge_, wait_hist_);
}

Shard::~Shard() { Join(); }

uint32_t Shard::AddInstance(InstanceSpec spec) {
  specs_.push_back(std::move(spec));
  return static_cast<uint32_t>(specs_.size() - 1);
}

void Shard::WireInstance(uint32_t instance) { specs_[instance].wired = true; }

void Shard::Launch() {
  started_ = true;
  thread_ = std::thread([this] { Run(); });
}

void Shard::AwaitSetup() {
  std::unique_lock<std::mutex> lock(setup_mu_);
  setup_cv_.wait(lock, [this] { return setup_done_; });
}

void Shard::Join() {
  if (!started_) {
    return;
  }
  mailbox_.Close();
  if (thread_.joinable()) {
    thread_.join();
  }
  started_ = false;
}

bool Shard::Post(FleetEnvelope env) {
  // Shard-thread-origin posts (terminal routes) bypass the bound so a cycle
  // of full mailboxes can never block the threads that drain them.
  const bool accepted = mailbox_.Push(std::move(env), /*bounded=*/g_current_shard == nullptr);
  if (accepted) {
    in_flight_gauge_->Add(1);
  }
  return accepted;
}

Shard* Shard::Current() { return g_current_shard; }

void Shard::BuildInstances() {
  const FleetRuntime::Options& options = fleet_->options();
  instances_.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    Instance& inst = instances_[i];
    inst.spec = specs_[i];
    inst.rng = Rng(inst.spec.seed);
    inst.context = RuntimeContext::CreateIsolated();
    if (options.event_capacity > 0) {
      // Enabled before Create, so setup-time events land in the log exactly
      // as a single-threaded enable-then-Create run records them.
      inst.context->event_log().Enable(options.event_capacity);
    }
    std::shared_ptr<Policy> shared;
    if (options.version != AppVersion::kOriginal) {
      auto it = policies_.find(inst.spec.app);
      if (it != policies_.end()) {
        shared = it->second;
      }
    }
    auto runtime =
        AppRuntime::Create(*inst.spec.app, options.version, options.tier, inst.context.get(),
                           shared);
    if (!runtime.ok()) {
      if (status_.ok()) {
        status_ = runtime.status();
      }
      errors_.push_back(inst.spec.id + ": setup: " + runtime.status().ToString());
      inst.context.reset();
      continue;
    }
    inst.runtime = std::move(runtime).value();
    if (shared == nullptr && inst.runtime->policy() != nullptr) {
      policies_[inst.spec.app] = inst.runtime->policy();
    }
    inst.latency = inst.context->metrics().GetHistogram("multi.proc_seconds");
    if (inst.spec.wired) {
      FleetRuntime* fleet = fleet_;
      Shard* shard = this;
      int shard_index = index_;
      uint32_t instance_index = static_cast<uint32_t>(i);
      inst.runtime->engine().set_terminal_sink(
          [fleet, shard, shard_index, instance_index](const std::string&, const Value& msg,
                                                      uint64_t trace_id) {
            // Runs on the shard thread mid-drive: the envelope being
            // processed is still current, so its fleet identity extends to
            // the outgoing hop. parent_span is the *local* trace the send
            // happened under — the receiving shard's binding points back to
            // it, which is what the assembler stitches on.
            FleetTraceContext hop = shard->current_env_trace_;
            hop.parent_span = trace_id;
            ++hop.hop;
            shard->wire_out_->Increment();
            fleet->RouteTerminal(shard_index, instance_index, msg, hop);
          });
    }
  }
}

void Shard::Process(const FleetEnvelope& env) {
  if (env.instance >= instances_.size()) {
    return;
  }
  Instance& inst = instances_[env.instance];
  if (inst.runtime == nullptr) {
    return;  // setup failed; envelopes for it drain as no-ops
  }
  if (env.kind == FleetEnvelope::Kind::kPayload) {
    wire_in_->Increment();
  }
  const auto start = std::chrono::steady_clock::now();
  if (env.enqueued_at.time_since_epoch().count() != 0) {
    const std::chrono::duration<double> queued = start - env.enqueued_at;
    queue_hist_->Observe(queued.count());
  }
  // While the drive runs, terminal sinks see this envelope's fleet identity
  // (the sink fires on this thread, mid-DriveMessage/InjectValue).
  current_env_trace_ = env.trace;
  const obs::EventLog& log = inst.context->event_log();
  const uint64_t traces_before = log.traces_started();
  Status status = env.kind == FleetEnvelope::Kind::kGenerate
                      ? inst.runtime->DriveMessage(&inst.rng, env.seq)
                      : inst.runtime->InjectValue(FleetMaterializeMessage(env.payload));
  if (log.enabled()) {
    // Every local trace the drive started belongs to this envelope's fleet
    // trace: bind them so the post-drain assembler can stitch across shards.
    for (uint64_t local = traces_before + 1; local <= log.traces_started(); ++local) {
      trace_bindings_.push_back(ShardTraceBinding{env.instance, local, env.trace});
    }
  }
  current_env_trace_ = FleetTraceContext{};
  if (env.record) {
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    inst.latency->Observe(elapsed.count());
  }
  if (!status.ok()) {
    errors_.push_back(inst.spec.id + ": " + status.ToString());
  }
}

void Shard::Run() {
  g_current_shard = this;
  BuildInstances();
  {
    std::lock_guard<std::mutex> lock(setup_mu_);
    setup_done_ = true;
  }
  setup_cv_.notify_all();
  alive_.store(true, std::memory_order_release);

  std::vector<FleetEnvelope> batch;
  while (mailbox_.PopAll(&batch)) {
    for (const FleetEnvelope& env : batch) {
      Process(env);
      processed_.fetch_add(1, std::memory_order_relaxed);
      in_flight_gauge_->Add(-1);
      fleet_->OnProcessed();
    }
    batch.clear();
  }
  alive_.store(false, std::memory_order_release);
  g_current_shard = nullptr;
}

AppRuntime* Shard::runtime_of(uint32_t instance) const {
  return instance < instances_.size() ? instances_[instance].runtime.get() : nullptr;
}

RuntimeContext* Shard::context_of(uint32_t instance) const {
  return instance < instances_.size() ? instances_[instance].context.get() : nullptr;
}

const std::string& Shard::instance_id(uint32_t instance) const {
  static const std::string kEmpty;
  return instance < specs_.size() ? specs_[instance].id : kEmpty;
}

uint64_t Shard::MergeLatency(obs::Histogram* into) const {
  uint64_t merged = 0;
  for (const Instance& inst : instances_) {
    if (inst.latency == nullptr) {
      continue;
    }
    if (into->Merge(*inst.latency)) {
      merged += inst.latency->count();
    }
  }
  return merged;
}

}  // namespace turnstile
