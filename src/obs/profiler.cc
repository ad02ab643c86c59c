#include "src/obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>

#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"

namespace turnstile {
namespace obs {

namespace {

constexpr size_t kDroppedIndex = std::numeric_limits<size_t>::max();

const char* SpanCategory(const ProfileSpan& span) {
  return span.monitor ? "monitor" : "app";
}

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* instance = new Profiler();  // never destroyed: hot-path
  return *instance;                            // pointers must stay valid
}

Profiler::Profiler(EventLog* log, Metrics* metrics) {
  log_ = log != nullptr ? log : &EventLog::Global();
  metrics_ = metrics != nullptr ? metrics : &Metrics::Global();
}

double Profiler::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void Profiler::Enable(size_t span_capacity) {
  Clear();
  enabled_ = true;
  capacity_ = span_capacity;
  spans_.reserve(std::min<size_t>(span_capacity, 4096));
  epoch_ = std::chrono::steady_clock::now();
  account_mark_s_ = 0.0;
  line_mark_s_ = 0.0;
}

void Profiler::Disable() {
  enabled_ = false;
  Clear();
}

void Profiler::Clear() {
  spans_.clear();
  next_span_ = 1;
  dropped_ = 0;
  open_.clear();
  roots_.clear();
  account_ = Account::kIdle;
  account_stack_.clear();
  app_s_ = 0.0;
  monitor_s_ = 0.0;
  functions_.clear();
  fn_by_key_.clear();
  fn_by_name_line_.clear();
  frames_.clear();
  vm_depth_ = 0;
  current_line_ = -1;
  vm_s_ = 0.0;
  line_stack_.clear();
  lines_.clear();
  node_histograms_.clear();
  double now = Now();
  account_mark_s_ = now;
  line_mark_s_ = now;
}

// --- split accounting --------------------------------------------------------

void Profiler::AccountFlush() {
  double now = Now();
  double elapsed = now - account_mark_s_;
  account_mark_s_ = now;
  if (elapsed <= 0.0) {
    return;
  }
  switch (account_) {
    case Account::kIdle:
      break;
    case Account::kApp:
      app_s_ += elapsed;
      break;
    case Account::kMonitor:
      monitor_s_ += elapsed;
      break;
  }
}

void Profiler::PushAccount(Account account) {
  AccountFlush();
  account_stack_.push_back(account_);
  account_ = account;
}

void Profiler::PopAccount() {
  AccountFlush();
  if (account_stack_.empty()) {
    account_ = Account::kIdle;
    return;
  }
  account_ = account_stack_.back();
  account_stack_.pop_back();
}

void Profiler::PushMonitor() {
  if (!enabled_) {
    return;
  }
  PushAccount(Account::kMonitor);
}

void Profiler::PushApp() {
  if (!enabled_) {
    return;
  }
  PushAccount(Account::kApp);
}

void Profiler::Pop() {
  if (!enabled_) {
    return;
  }
  PopAccount();
}

OverheadSplit Profiler::split() const {
  OverheadSplit out;
  out.app_s = app_s_;
  out.monitor_s = monitor_s_;
  // Bill the running stretch so mid-flight reads (bench loops) are accurate.
  if (enabled_ && account_ != Account::kIdle) {
    double elapsed = Now() - account_mark_s_;
    if (elapsed > 0.0) {
      (account_ == Account::kApp ? out.app_s : out.monitor_s) += elapsed;
    }
  }
  return out;
}

// --- span tree ---------------------------------------------------------------

uint64_t Profiler::BeginMessage(uint64_t trace_id, const std::string& origin_node) {
  if (!enabled_ || trace_id == 0) {
    return 0;
  }
  ProfileSpan span;
  span.id = next_span_++;
  span.parent = 0;
  span.trace_id = trace_id;
  span.kind = EventKind::kInject;
  span.monitor = false;
  span.open = true;
  span.start_s = Now();
  span.end_s = span.start_s;  // grows as descendants close
  span.name = "inject:" + origin_node;
  uint64_t id = span.id;
  if (spans_.size() < capacity_) {
    roots_[trace_id] = spans_.size();
    spans_.push_back(std::move(span));
  } else {
    ++dropped_;
  }
  return id;
}

uint64_t Profiler::BeginSpan(EventKind kind, std::string name, bool monitor, std::string detail) {
  if (!enabled_) {
    return 0;
  }
  ProfileSpan span;
  span.id = next_span_++;
  span.trace_id = log_->current_trace();
  span.kind = kind;
  span.monitor = monitor;
  span.open = true;
  span.start_s = Now();
  span.name = std::move(name);
  span.detail = std::move(detail);
  if (!open_.empty()) {
    const OpenSpan& top = open_.back();
    span.parent = top.id;
  } else {
    auto root = roots_.find(span.trace_id);
    span.parent = root != roots_.end() ? spans_[root->second].id : 0;
  }
  OpenSpan entry;
  entry.id = span.id;
  if (spans_.size() < capacity_) {
    entry.index = spans_.size();
    spans_.push_back(std::move(span));
  } else {
    entry.index = kDroppedIndex;
    ++dropped_;
  }
  // Route the span's wall time: __dift/tracker spans to monitor, turn and
  // node spans to app. Node-enter markers are instant; pushing app for them
  // is harmless (they close immediately).
  entry.pushed_state = true;
  PushAccount(monitor ? Account::kMonitor : Account::kApp);
  open_.push_back(entry);
  return entry.id;
}

void Profiler::EndSpan(uint64_t id) {
  if (!enabled_ || id == 0) {
    return;
  }
  // LIFO in the normal case; unwind defensively if a callee leaked opens
  // (abrupt completions that bypassed a scoped close).
  while (!open_.empty()) {
    OpenSpan top = open_.back();
    open_.pop_back();
    double now = Now();
    if (top.index != kDroppedIndex && top.index < spans_.size()) {
      ProfileSpan& span = spans_[top.index];
      span.open = false;
      span.end_s = now;
      if (span.trace_id != 0) {
        CloseMessageRoot(span.trace_id, now);
      }
      // Per-node turn latency: fold closed "node:*" turn spans into a
      // labeled histogram so the metrics snapshot carries percentiles.
      if (span.kind == EventKind::kLoopTurn && span.name.rfind("node:", 0) == 0) {
        std::string node = span.name.substr(5);
        auto [it, inserted] = node_histograms_.try_emplace(node, nullptr);
        if (inserted) {
          it->second = metrics_->GetHistogram(
              MetricWithLabel("flow.node_turn_seconds", "node", node));
        }
        it->second->Observe(span.duration_s());
      }
    }
    if (top.pushed_state) {
      PopAccount();
    }
    if (top.id == id) {
      return;
    }
  }
}

void Profiler::CloseMessageRoot(uint64_t trace_id, double end_s) {
  auto it = roots_.find(trace_id);
  if (it == roots_.end() || it->second >= spans_.size()) {
    return;
  }
  ProfileSpan& root = spans_[it->second];
  root.end_s = std::max(root.end_s, end_s);
}

// --- function frames ---------------------------------------------------------

uint32_t Profiler::FunctionIndex(const void* key, const std::string& name, int line) {
  auto by_key = fn_by_key_.find(key);
  if (by_key != fn_by_key_.end()) {
    return by_key->second;
  }
  // New pointer: merge with any existing (name, line) profile so re-created
  // function objects (natives registered per interpreter) aggregate.
  std::string merged = name + "@" + std::to_string(line);
  auto [it, inserted] = fn_by_name_line_.try_emplace(merged, 0);
  if (inserted) {
    it->second = static_cast<uint32_t>(functions_.size());
    FunctionProfile profile;
    profile.name = name.empty() ? "<anonymous>" : name;
    profile.line = line;
    profile.monitor = name.rfind("__dift.", 0) == 0 || account_ == Account::kMonitor;
    functions_.push_back(std::move(profile));
  }
  fn_by_key_[key] = it->second;
  return it->second;
}

void Profiler::EnterFrame(const void* key, const std::string& name, int line) {
  if (!enabled_) {
    return;
  }
  Frame frame;
  frame.fn = FunctionIndex(key, name, line);
  frame.start_s = Now();
  frames_.push_back(frame);
}

void Profiler::ExitFrame() {
  if (!enabled_ || frames_.empty()) {
    return;
  }
  Frame frame = frames_.back();
  frames_.pop_back();
  double total = Now() - frame.start_s;
  FunctionProfile& profile = functions_[frame.fn];
  profile.calls += 1;
  profile.total_s += total;
  profile.self_s += std::max(0.0, total - frame.child_s);
  if (!frames_.empty()) {
    frames_.back().child_s += total;
  }
}

// --- VM line clock -----------------------------------------------------------

void Profiler::LineFlush() {
  double now = Now();
  double elapsed = now - line_mark_s_;
  line_mark_s_ = now;
  if (elapsed <= 0.0 || vm_depth_ == 0) {
    return;
  }
  vm_s_ += elapsed;
  if (current_line_ >= 0) {
    LineProfile& line = lines_[current_line_];
    line.line = current_line_;
    line.self_s += elapsed;
  }
}

void Profiler::EnterVm() {
  if (!enabled_) {
    return;
  }
  LineFlush();
  line_stack_.push_back(current_line_);
  ++vm_depth_;
}

void Profiler::ExitVm() {
  if (!enabled_) {
    return;
  }
  LineFlush();
  if (vm_depth_ > 0) {
    --vm_depth_;
  }
  if (!line_stack_.empty()) {
    current_line_ = line_stack_.back();
    line_stack_.pop_back();
  } else {
    current_line_ = -1;
  }
}

void Profiler::LineTick(int32_t line) {
  if (!enabled_ || line == current_line_) {
    return;  // the common case: consecutive instructions on one line
  }
  LineFlush();
  if (line != current_line_) {
    lines_[line].ticks += 1;
    lines_[line].line = line;
  }
  current_line_ = line;
}

double Profiler::vm_seconds() const {
  double total = vm_s_;
  if (enabled_ && vm_depth_ > 0) {
    total += Now() - line_mark_s_;
  }
  return total;
}

// --- snapshots ---------------------------------------------------------------

std::vector<ProfileSpan> Profiler::SpanSnapshot() const {
  std::vector<ProfileSpan> out = spans_;
  double now = Now();
  for (ProfileSpan& span : out) {
    if (span.open) {
      span.open = false;
      if (span.kind == EventKind::kInject) {
        // Message roots track their latest descendant end while open; fall
        // back to "now" only if nothing ran under them yet.
        if (span.end_s <= span.start_s) {
          span.end_s = now;
        }
      } else {
        span.end_s = now;
      }
    }
  }
  return out;
}

std::vector<FunctionProfile> Profiler::FunctionsSnapshot() const {
  std::vector<FunctionProfile> out = functions_;
  std::sort(out.begin(), out.end(), [](const FunctionProfile& a, const FunctionProfile& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

std::vector<LineProfile> Profiler::LinesSnapshot() const {
  std::vector<LineProfile> out;
  out.reserve(lines_.size());
  for (const auto& [line, profile] : lines_) {
    out.push_back(profile);
  }
  std::sort(out.begin(), out.end(),
            [](const LineProfile& a, const LineProfile& b) { return a.line < b.line; });
  return out;
}

Json Profiler::ProfileSummaryJson() const {
  Json out = Json::Object();
  OverheadSplit totals = split();
  Json split_json = Json::Object();
  split_json.Set("app_seconds", Json(totals.app_s));
  split_json.Set("monitor_seconds", Json(totals.monitor_s));
  split_json.Set("overhead_fraction", Json(totals.fraction()));
  out.Set("split", std::move(split_json));

  Json functions = Json::Array();
  for (const FunctionProfile& fn : FunctionsSnapshot()) {
    Json entry = Json::Object();
    entry.Set("name", Json(fn.name));
    entry.Set("line", Json(fn.line));
    entry.Set("monitor", Json(fn.monitor));
    entry.Set("calls", Json(fn.calls));
    entry.Set("total_seconds", Json(fn.total_s));
    entry.Set("self_seconds", Json(fn.self_s));
    functions.Append(std::move(entry));
  }
  out.Set("functions", std::move(functions));

  Json lines = Json::Array();
  for (const LineProfile& line : LinesSnapshot()) {
    Json entry = Json::Object();
    entry.Set("line", Json(static_cast<int64_t>(line.line)));
    entry.Set("ticks", Json(line.ticks));
    entry.Set("self_seconds", Json(line.self_s));
    lines.Append(std::move(entry));
  }
  out.Set("lines", std::move(lines));
  out.Set("vm_seconds", Json(vm_seconds()));
  out.Set("spans_recorded", Json(spans_recorded()));
  out.Set("spans_dropped", Json(spans_dropped()));
  return out;
}

Json Profiler::ChromeTraceJson() const {
  Json events = Json::Array();
  for (const ProfileSpan& span : SpanSnapshot()) {
    Json event = Json::Object();
    event.Set("name", Json(span.name.empty() ? EventKindName(span.kind) : span.name));
    event.Set("cat", Json(SpanCategory(span)));
    event.Set("ph", Json("X"));  // complete event: ts + dur
    event.Set("ts", Json(span.start_s * 1e6));
    event.Set("dur", Json(std::max(0.0, span.duration_s()) * 1e6));
    event.Set("pid", Json(1));
    // One lane per message: Perfetto groups events by (pid, tid).
    event.Set("tid", Json(static_cast<int64_t>(span.trace_id)));
    Json args = Json::Object();
    args.Set("span", Json(span.id));
    args.Set("parent", Json(span.parent));
    args.Set("kind", Json(EventKindName(span.kind)));
    if (!span.detail.empty()) {
      args.Set("detail", Json(span.detail));
    }
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  Json out = Json::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", Json("ms"));
  // Non-standard key; trace viewers ignore unknown top-level fields.
  out.Set("turnstileProfile", ProfileSummaryJson());
  return out;
}

std::string Profiler::CollapsedStacks() const {
  std::vector<ProfileSpan> spans = SpanSnapshot();
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id[spans[i].id] = i;
  }
  // Self time = duration minus the duration of direct children.
  std::vector<double> child_s(spans.size(), 0.0);
  for (const ProfileSpan& span : spans) {
    auto parent = by_id.find(span.parent);
    if (span.parent != 0 && parent != by_id.end()) {
      child_s[parent->second] += std::max(0.0, span.duration_s());
    }
  }
  // Aggregate identical stacks (flamegraph.pl folds duplicates anyway, but a
  // pre-aggregated file is smaller and deterministic).
  std::map<std::string, uint64_t> folded;
  for (size_t i = 0; i < spans.size(); ++i) {
    double self = std::max(0.0, spans[i].duration_s()) - child_s[i];
    auto usec = static_cast<uint64_t>(std::max(0.0, self) * 1e6);
    if (usec == 0) {
      continue;
    }
    // Walk to the root, then reverse into "root;...;leaf".
    std::vector<const std::string*> path;
    size_t cursor = i;
    size_t guard = 0;
    while (guard++ <= spans.size()) {
      const ProfileSpan& span = spans[cursor];
      path.push_back(&span.name);
      auto parent = by_id.find(span.parent);
      if (span.parent == 0 || parent == by_id.end()) {
        break;
      }
      cursor = parent->second;
    }
    std::string stack;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (!stack.empty()) {
        stack += ';';
      }
      const std::string& frame = **it;
      // The format reserves ';' (separator) and ' ' (value delimiter).
      for (char c : frame) {
        stack += (c == ';' || c == ' ') ? '_' : c;
      }
    }
    folded[stack] += usec;
  }
  std::string out;
  for (const auto& [stack, usec] : folded) {
    out += stack + " " + std::to_string(usec) + "\n";
  }
  return out;
}

// --- environment configuration -----------------------------------------------

namespace {

// Set by ApplyEnvObsConfig when TURNSTILE_PROFILE is present; written by the
// atexit hook after main() returns so the full run is captured.
std::string* g_profile_path = nullptr;

void WriteProfileAtExit() {
  if (g_profile_path == nullptr || g_profile_path->empty()) {
    return;
  }
  Profiler& profiler = Profiler::Global();
  if (!profiler.enabled()) {
    return;  // something disabled it programmatically; respect that
  }
  std::string json = profiler.ChromeTraceJson().Dump(/*pretty=*/false);
  std::FILE* file = std::fopen(g_profile_path->c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "profiler: cannot open '%s' for writing\n", g_profile_path->c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::fprintf(stderr, "profiler: Chrome trace written to %s\n", g_profile_path->c_str());
}

// TURNSTILE_AUDIT's spill hook: drain whatever is still buffered in the
// event log's ring into the JSONL file after main() returns.
void WriteEventLogAtExit() {
  EventLog& log = EventLog::Global();
  if (!log.enabled() || !log.has_spill()) {
    return;  // something disabled it programmatically; respect that
  }
  log.FlushSpill();
}

// TURNSTILE_TELEMETRY's shutdown hook: stop whichever exporter the env var
// started so the reader thread joins and the snapshot file gets its final
// line before the process exits.
void StopTelemetryAtExit() {
  TelemetryServer::Global().Stop();
  TelemetrySnapshotWriter::Global().Stop();
}

}  // namespace

namespace {
// Once-per-process latch. Interpreters for isolated contexts are constructed
// on worker threads, so the latch must be race-free: the fast path is one
// acquire load; losers of the mutex race see the flag set and return without
// re-reading the environment.
std::atomic<bool> g_env_config_applied{false};
std::mutex g_env_config_mu;

void ApplyEnvObsConfigLocked();
}  // namespace

void ReapplyEnvObsConfigForTest() {
  std::lock_guard<std::mutex> lock(g_env_config_mu);
  ApplyEnvObsConfigLocked();
  g_env_config_applied.store(true, std::memory_order_release);
}

void ApplyEnvObsConfig() {
  if (g_env_config_applied.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(g_env_config_mu);
  if (g_env_config_applied.load(std::memory_order_relaxed)) {
    return;
  }
  ApplyEnvObsConfigLocked();
  g_env_config_applied.store(true, std::memory_order_release);
}

namespace {
void ApplyEnvObsConfigLocked() {
  const char* profile = std::getenv("TURNSTILE_PROFILE");
  if (profile != nullptr && profile[0] != '\0') {
    Profiler::Global().Enable();
    g_profile_path = new std::string(profile);
    std::atexit(WriteProfileAtExit);
  }
  // TURNSTILE_AUDIT=<path|capacity>: a number sizes the ring (ring only, no
  // spill); anything else is a JSONL spill path written out at process exit.
  // Same precedence as TURNSTILE_PROFILE: read once here, programmatic
  // Enable/Disable calls run later and override.
  const char* audit = std::getenv("TURNSTILE_AUDIT");
  if (audit != nullptr && audit[0] != '\0' && std::string(audit) != "0") {
    char* end = nullptr;
    long capacity = std::strtol(audit, &end, 10);
    EventLog& log = EventLog::Global();
    if (end != nullptr && *end == '\0' && capacity >= 1) {
      log.Enable(capacity == 1 ? EventLog::kDefaultCapacity : static_cast<size_t>(capacity));
    } else {
      log.Enable();
      if (log.SetSpillPath(audit)) {
        std::atexit(WriteEventLogAtExit);
      }
    }
  }
  // TURNSTILE_TELEMETRY=<port|path>: a number in [1,65535] starts the HTTP
  // server on 127.0.0.1:<port>; anything else is a JSONL path for the
  // periodic snapshot writer. Same once-at-startup precedence as
  // TURNSTILE_PROFILE: read once here, programmatic Start/Stop overrides.
  const char* telemetry = std::getenv("TURNSTILE_TELEMETRY");
  if (telemetry != nullptr && telemetry[0] != '\0' && std::string(telemetry) != "0") {
    char* end = nullptr;
    long port = std::strtol(telemetry, &end, 10);
    if (end != nullptr && *end == '\0' && port >= 1 && port <= 65535) {
      Status status = TelemetryServer::Global().Start(static_cast<int>(port));
      if (status.ok()) {
        std::fprintf(stderr, "telemetry: serving /metrics /healthz /traces on 127.0.0.1:%d\n",
                     TelemetryServer::Global().port());
        std::atexit(StopTelemetryAtExit);
      } else {
        std::fprintf(stderr, "telemetry: %s\n", status.message().c_str());
      }
    } else {
      Status status = TelemetrySnapshotWriter::Global().Start(telemetry);
      if (status.ok()) {
        std::fprintf(stderr, "telemetry: appending metric snapshots to %s\n", telemetry);
        std::atexit(StopTelemetryAtExit);
      } else {
        std::fprintf(stderr, "telemetry: %s\n", status.message().c_str());
      }
    }
  }
}
}  // namespace

}  // namespace obs
}  // namespace turnstile
