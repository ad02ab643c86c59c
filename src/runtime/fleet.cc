#include "src/runtime/fleet.h"

#include <utility>

#include "src/support/logging.h"

namespace turnstile {

namespace {
uint64_t RouteKey(int shard, uint32_t instance) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(shard)) << 32) | instance;
}

// --- serialization -----------------------------------------------------------

Json SerializeAt(const Value& msg, int depth) {
  Value value = Unbox(msg);
  if (depth > kMaxSerializeDepth) {
    return Json(nullptr);
  }
  if (value.IsBool()) {
    return Json(value.AsBool());
  }
  if (value.IsNumber()) {
    return Json(value.AsNumber());
  }
  if (value.IsString()) {
    return Json(value.AsString());
  }
  if (value.IsArray()) {
    Json out = Json::Array();
    for (const Value& element : value.AsArray()->elements) {
      out.Append(SerializeAt(element, depth + 1));
    }
    return out;
  }
  if (value.IsObject()) {
    Json out = Json::Object();
    JsonObject& fields = out.object_items();
    const ObjectPtr& object = value.AsObject();
    fields.reserve(object->insertion_order.size());
    // insertion_order never repeats a key: append without Set's scan.
    for (Atom key : object->insertion_order) {
      auto it = object->properties.find(key);
      if (it != object->properties.end()) {
        fields.emplace_back(AtomName(key), SerializeAt(it->second, depth + 1));
      }
    }
    return out;
  }
  // undefined, null, functions: nothing transportable — degrade to null,
  // matching what JSON.stringify would do to the first two.
  return Json(nullptr);
}

}  // namespace

Json FleetSerializeMessage(const Value& msg) { return SerializeAt(msg, 0); }

Value FleetMaterializeMessage(const Json& payload) {
  switch (payload.type()) {
    case Json::Type::kBool:
      return Value(payload.bool_value());
    case Json::Type::kNumber:
      return Value(payload.number_value());
    case Json::Type::kString:
      return Value(payload.string_value());
    case Json::Type::kArray: {
      std::vector<Value> elements;
      elements.reserve(payload.array_items().size());
      for (const Json& element : payload.array_items()) {
        elements.push_back(FleetMaterializeMessage(element));
      }
      return Value(MakeArray(std::move(elements)));
    }
    case Json::Type::kObject: {
      ObjectPtr object = MakeObject();
      for (const auto& [key, value] : payload.object_items()) {
        object->Set(key, FleetMaterializeMessage(value));
      }
      return Value(object);
    }
    case Json::Type::kNull:
      break;
  }
  return Value::Null();
}

// --- FleetRuntime ------------------------------------------------------------

FleetRuntime::FleetRuntime(Options options) : options_(std::move(options)) {
  if (options_.shards <= 0) {
    options_.shards = 4;
  }
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, i, options_.mailbox_capacity));
  }
}

FleetRuntime::~FleetRuntime() { Stop(); }

std::string FleetRuntime::AddApp(const CorpusApp& app, int shard) {
  int target = shard;
  if (target < 0 || target >= shard_count()) {
    target = next_shard_;
    next_shard_ = (next_shard_ + 1) % shard_count();
  }
  int ordinal = per_app_counts_[app.name]++;
  std::string id = app.name + "#" + std::to_string(ordinal);
  Shard::InstanceSpec spec;
  spec.app = &app;
  spec.id = id;
  spec.seed = options_.rng_seed;
  uint32_t instance = shards_[static_cast<size_t>(target)]->AddInstance(std::move(spec));
  apps_[id] = Placement{target, instance};
  return id;
}

Status FleetRuntime::Wire(const std::string& src_id, const std::string& dst_id) {
  auto src = apps_.find(src_id);
  auto dst = apps_.find(dst_id);
  if (src == apps_.end()) {
    return NotFoundError("fleet: unknown source app '" + src_id + "'");
  }
  if (dst == apps_.end()) {
    return NotFoundError("fleet: unknown destination app '" + dst_id + "'");
  }
  if (started_) {
    return InvalidArgumentError("fleet: Wire() must precede Start()");
  }
  routes_[RouteKey(src->second.shard, src->second.instance)] = dst->second;
  shards_[static_cast<size_t>(src->second.shard)]->WireInstance(src->second.instance);
  return Status::Ok();
}

Status FleetRuntime::Start() {
  started_ = true;
  // Launch every shard before waiting for any: each builds its instances on
  // its own thread, so setup runs concurrently across shards. Statuses are
  // read in shard order, so the first failing shard's error wins.
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->Launch();
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->AwaitSetup();
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->status().ok()) {
      return shard->status();
    }
  }
  return Status::Ok();
}

bool FleetRuntime::Post(const std::string& app_id, int seq, bool record) {
  auto it = apps_.find(app_id);
  if (it == apps_.end() || stopped_) {
    return false;
  }
  FleetEnvelope env;
  env.kind = FleetEnvelope::Kind::kGenerate;
  env.instance = it->second.instance;
  env.seq = seq;
  env.record = record;
  if (options_.event_capacity > 0) {
    // Injection root: mint the fleet-wide id the message keeps across every
    // wire hop. hop 0, no parent — this IS the origin span.
    env.trace.fleet_trace_id = next_fleet_trace_.fetch_add(1, std::memory_order_relaxed);
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (!shards_[static_cast<size_t>(it->second.shard)]->Post(std::move(env))) {
    OnProcessed();  // mailbox closed: the envelope never entered the system
    return false;
  }
  return true;
}

void FleetRuntime::RouteTerminal(int src_shard, uint32_t src_instance, const Value& msg,
                                 const FleetTraceContext& trace) {
  auto it = routes_.find(RouteKey(src_shard, src_instance));
  if (it == routes_.end()) {
    return;
  }
  FleetEnvelope env;
  env.kind = FleetEnvelope::Kind::kPayload;
  env.instance = it->second.instance;
  env.payload = FleetSerializeMessage(msg);
  env.trace = trace;  // rides the envelope, never the payload or the log
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (!shards_[static_cast<size_t>(it->second.shard)]->Post(std::move(env))) {
    OnProcessed();
  }
}

void FleetRuntime::OnProcessed() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last envelope: wake Drain(). The lock pairs with the waiter's recheck,
    // closing the decide-then-sleep race.
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void FleetRuntime::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

void FleetRuntime::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  if (telemetry_ != nullptr) {
    // Detach before teardown: ClearProviders blocks until any in-flight
    // provider call (which reads shard instruments) has returned.
    telemetry_->ClearProviders();
    telemetry_ = nullptr;
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->Join();
  }
}

uint64_t FleetRuntime::messages_processed() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->processed();
  }
  return total;
}

AppRuntime* FleetRuntime::runtime_of(const std::string& app_id) const {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) {
    return nullptr;
  }
  return shards_[static_cast<size_t>(it->second.shard)]->runtime_of(it->second.instance);
}

RuntimeContext* FleetRuntime::context_of(const std::string& app_id) const {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) {
    return nullptr;
  }
  return shards_[static_cast<size_t>(it->second.shard)]->context_of(it->second.instance);
}

std::vector<std::string> FleetRuntime::errors() const {
  std::vector<std::string> out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    out.insert(out.end(), shard->errors().begin(), shard->errors().end());
  }
  return out;
}

uint64_t FleetRuntime::MergeShardLatency(int shard, obs::Histogram* into) const {
  if (shard < 0 || shard >= shard_count()) {
    return 0;
  }
  return shards_[static_cast<size_t>(shard)]->MergeLatency(into);
}

uint64_t FleetRuntime::MergeFleetLatency(obs::Histogram* into) const {
  uint64_t merged = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    merged += shard->MergeLatency(into);
  }
  return merged;
}

uint64_t FleetRuntime::MergeQueueLatency(obs::Histogram* into) const {
  uint64_t merged = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (into->Merge(shard->queue_latency())) {
      merged += shard->queue_latency().count();
    }
  }
  return merged;
}

uint64_t FleetRuntime::MergeEnqueueWait(obs::Histogram* into) const {
  uint64_t merged = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (into->Merge(shard->enqueue_wait())) {
      merged += shard->enqueue_wait().count();
    }
  }
  return merged;
}

obs::FleetTraceAssembler FleetRuntime::AssembleTrace() const {
  obs::FleetTraceAssembler assembler;
  for (int s = 0; s < shard_count(); ++s) {
    const Shard& sh = *shards_[static_cast<size_t>(s)];
    const std::string lane = "shard" + std::to_string(s);
    for (uint32_t i = 0; i < sh.instance_count(); ++i) {
      RuntimeContext* context = sh.context_of(i);
      if (context == nullptr || !context->event_log().enabled()) {
        continue;
      }
      std::vector<obs::FleetSpanBinding> bindings;
      for (const ShardTraceBinding& binding : sh.trace_bindings()) {
        if (binding.instance != i) {
          continue;
        }
        bindings.push_back(obs::FleetSpanBinding{binding.local_trace_id,
                                                 binding.trace.fleet_trace_id,
                                                 binding.trace.parent_span, binding.trace.hop});
      }
      assembler.AddContext(s, lane, sh.instance_id(i), context->event_log().Snapshot(),
                           std::move(bindings));
    }
  }
  return assembler;
}

void FleetRuntime::AttachTelemetry(obs::TelemetryServer* server) {
  telemetry_ = server;
  server->SetMetricsProvider([this] { return TelemetryMetricsText(); });
  server->SetHealthProvider([this] { return TelemetryHealthJson(); });
}

std::string FleetRuntime::TelemetryMetricsText() const {
  // A throwaway registry per scrape: shard atomics are sampled into labeled
  // series and the per-shard queue histograms merge into fleet-wide ones.
  // Everything read here is lock-free (gauges, counters, histogram buckets)
  // or takes only the mailbox mutex (depth) — never instance state.
  obs::Metrics scrape;
  obs::Histogram* queue = scrape.GetHistogram("fleet.queue_seconds");
  obs::Histogram* wait = scrape.GetHistogram("fleet.enqueue_wait_seconds");
  for (int s = 0; s < shard_count(); ++s) {
    const Shard& sh = *shards_[static_cast<size_t>(s)];
    const std::string label = std::to_string(s);
    obs::Metrics& own = sh.shard_context()->metrics();
    scrape.GetGauge(obs::MetricWithLabel("shard.mailbox_depth", "shard", label))
        ->Set(static_cast<int64_t>(sh.mailbox_depth()));
    scrape.GetGauge(obs::MetricWithLabel("shard.in_flight", "shard", label))
        ->Set(sh.in_flight());
    scrape.GetGauge(obs::MetricWithLabel("shard.alive", "shard", label))
        ->Set(sh.alive() ? 1 : 0);
    scrape.GetCounter(obs::MetricWithLabel("shard.processed", "shard", label))
        ->Increment(sh.processed());
    scrape.GetCounter(obs::MetricWithLabel("shard.wire_in", "shard", label))
        ->Increment(own.GetCounter("shard.wire_in")->value());
    scrape.GetCounter(obs::MetricWithLabel("shard.wire_out", "shard", label))
        ->Increment(own.GetCounter("shard.wire_out")->value());
    queue->Merge(sh.queue_latency());
    wait->Merge(sh.enqueue_wait());
  }
  scrape.GetGauge("fleet.in_flight")
      ->Set(static_cast<int64_t>(in_flight_.load(std::memory_order_relaxed)));
  scrape.GetGauge("fleet.shards")->Set(shard_count());
  scrape.GetGauge("fleet.apps")->Set(static_cast<int64_t>(apps_.size()));
  scrape.GetCounter("fleet.messages_processed")->Increment(messages_processed());
  return obs::Metrics::Global().ToPrometheusText() + scrape.ToPrometheusText();
}

Json FleetRuntime::TelemetryHealthJson() const {
  Json shards = Json::Array();
  bool all_alive = true;
  for (int s = 0; s < shard_count(); ++s) {
    const Shard& sh = *shards_[static_cast<size_t>(s)];
    const bool alive = sh.alive();
    all_alive = all_alive && alive;
    Json entry = Json::Object();
    entry.Set("shard", Json(s));
    entry.Set("alive", Json(alive));
    entry.Set("mailbox_depth", Json(sh.mailbox_depth()));
    entry.Set("in_flight", Json(sh.in_flight()));
    entry.Set("processed", Json(sh.processed()));
    shards.Append(std::move(entry));
  }
  Json out = Json::Object();
  out.Set("ok", Json(all_alive));
  out.Set("shards", std::move(shards));
  out.Set("in_flight", Json(in_flight_.load(std::memory_order_relaxed)));
  out.Set("apps", Json(apps_.size()));
  return out;
}

void FleetRuntime::PublishTraces(obs::TelemetryServer* server, size_t max_traces) const {
  obs::FleetTraceAssembler assembler = AssembleTrace();
  server->PublishFullTrace(assembler.ChromeTraceJson().Dump(/*pretty=*/false) + "\n");
  size_t published = 0;
  for (uint64_t id : assembler.FleetTraceIds()) {
    if (published >= max_traces) {
      break;
    }
    Json hops = Json::Array();
    for (const obs::FleetTraceAssembler::Hop& hop : assembler.HopsOf(id)) {
      Json entry = Json::Object();
      entry.Set("hop", Json(static_cast<int>(hop.hop)));
      entry.Set("shard", Json(hop.shard));
      entry.Set("source", Json(hop.source));
      entry.Set("local_trace", Json(hop.local_trace_id));
      entry.Set("parent_span", Json(hop.parent_span));
      Json events = Json::Array();
      for (const obs::Event& event : hop.events) {
        events.Append(Json(event.ToString()));
      }
      entry.Set("events", std::move(events));
      hops.Append(std::move(entry));
    }
    Json trace = Json::Object();
    trace.Set("fleet_trace", Json(id));
    trace.Set("hops", std::move(hops));
    server->PublishTrace(id, trace.Dump(/*pretty=*/false) + "\n");
    ++published;
  }
}

}  // namespace turnstile
