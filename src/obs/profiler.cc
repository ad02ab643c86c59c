#include "src/obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/support/env.h"

namespace turnstile {
namespace obs {

Profiler& Profiler::Global() {
  static Profiler* instance = new Profiler();  // never destroyed: hot-path
  return *instance;                            // pointers must stay valid
}

Profiler::Profiler(Metrics* metrics) {
  metrics_ = metrics != nullptr ? metrics : &Metrics::Global();
}

double Profiler::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void Profiler::Enable() {
  Clear();
  enabled_ = true;
  epoch_ = std::chrono::steady_clock::now();
  account_mark_s_ = 0.0;
  line_mark_s_ = 0.0;
}

void Profiler::Disable() {
  enabled_ = false;
  Clear();
}

void Profiler::Clear() {
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

double Profiler::AccountFlush() {
  double now = Now();
  double elapsed = now - account_mark_s_;
  account_mark_s_ = now;
  if (elapsed <= 0.0) {
    return now;
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
  return now;
}

double Profiler::PushAccount(Account account) {
  if (!enabled_) {
    return 0.0;
  }
  const double now = AccountFlush();
  account_stack_.push_back(account_);
  account_ = account;
  return now;
}

double Profiler::PushMonitor() { return PushAccount(Account::kMonitor); }

double Profiler::PushApp() { return PushAccount(Account::kApp); }

double Profiler::Pop() {
  if (!enabled_) {
    return 0.0;
  }
  const double now = AccountFlush();
  if (account_stack_.empty()) {
    account_ = Account::kIdle;
  } else {
    account_ = account_stack_.back();
    account_stack_.pop_back();
  }
  return now;
}

void Profiler::ObserveNodeTurn(const std::string& node, double seconds) {
  auto [it, inserted] = node_histograms_.try_emplace(node, nullptr);
  if (inserted) {
    it->second = metrics_->GetHistogram(MetricWithLabel("flow.node_turn_seconds", "node", node));
  }
  it->second->Observe(seconds);
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
  return out;
}

// --- trace views ---------------------------------------------------------------

namespace {

constexpr size_t kNoParent = std::numeric_limits<size_t>::max();

// One buffered event placed in its trace's interval tree.
struct TraceNode {
  int64_t end_ns = 0;
  size_t parent = kNoParent;  // index into the snapshot
  std::string name;           // "<kind>:<subject>"
};

// Nests each trace's events by their intervals. Log stamps never tie, so an
// event belongs to the innermost earlier event of its trace still running
// when it starts. A message's inject event ends at its last descendant's end.
std::vector<TraceNode> NestEvents(const std::vector<Event>& events) {
  std::unordered_map<uint64_t, int64_t> trace_end;
  for (const Event& event : events) {
    int64_t& end = trace_end[event.trace_id];
    end = std::max(end, event.start_ns + event.dur_ns);
  }
  std::vector<TraceNode> nodes(events.size());
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    order[i] = i;
    const Event& event = events[i];
    nodes[i].end_ns = event.kind == EventKind::kInject ? trace_end[event.trace_id]
                                                       : event.start_ns + event.dur_ns;
    nodes[i].name = std::string(EventKindName(event.kind)) + ":" + event.subject;
  }
  std::sort(order.begin(), order.end(), [&events](size_t a, size_t b) {
    return std::tie(events[a].trace_id, events[a].start_ns) <
           std::tie(events[b].trace_id, events[b].start_ns);
  });
  std::vector<size_t> open;
  for (size_t k = 0; k < order.size(); ++k) {
    const Event& event = events[order[k]];
    if (k > 0 && events[order[k - 1]].trace_id != event.trace_id) {
      open.clear();  // a new lane
    }
    while (!open.empty() && nodes[open.back()].end_ns < event.start_ns) {
      open.pop_back();
    }
    nodes[order[k]].parent = open.empty() ? kNoParent : open.back();
    open.push_back(order[k]);
  }
  return nodes;
}

}  // namespace

Json ChromeTraceJson(const EventLog& log, const Profiler& profiler) {
  const std::vector<Event> events = log.Snapshot();
  const std::vector<TraceNode> nodes = NestEvents(events);
  Json trace_events = Json::Array();
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    Json out = Json::Object();
    out.Set("name", Json(nodes[i].name));
    out.Set("cat", Json(event.kind >= EventKind::kDiftLabel ? "monitor" : "app"));
    out.Set("ph", Json("X"));  // complete event: ts + dur
    out.Set("ts", Json(static_cast<double>(event.start_ns) / 1e3));
    out.Set("dur", Json(static_cast<double>(nodes[i].end_ns - event.start_ns) / 1e3));
    out.Set("pid", Json(1));
    // One lane per message: Perfetto groups events by (pid, tid).
    out.Set("tid", Json(event.trace_id));
    Json args = Json::Object();
    args.Set("seq", Json(event.seq));
    args.Set("parent", Json(nodes[i].parent == kNoParent ? uint64_t{0}
                                                         : events[nodes[i].parent].seq));
    args.Set("kind", Json(EventKindName(event.kind)));
    if (!event.detail.empty()) {
      args.Set("detail", Json(event.detail));
    }
    out.Set("args", std::move(args));
    trace_events.Append(std::move(out));
  }
  Json out = Json::Object();
  out.Set("traceEvents", std::move(trace_events));
  out.Set("displayTimeUnit", Json("ms"));
  // Non-standard key; trace viewers ignore unknown top-level fields.
  out.Set("turnstileProfile", profiler.ProfileSummaryJson());
  return out;
}

std::string CollapsedStacks(const EventLog& log) {
  const std::vector<Event> events = log.Snapshot();
  const std::vector<TraceNode> nodes = NestEvents(events);
  // Self time = duration minus the duration of direct children.
  std::vector<int64_t> self_ns(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    self_ns[i] += nodes[i].end_ns - events[i].start_ns;
    if (nodes[i].parent != kNoParent) {
      self_ns[nodes[i].parent] -= nodes[i].end_ns - events[i].start_ns;
    }
  }
  // Aggregate identical stacks (flamegraph.pl folds duplicates anyway, but a
  // pre-aggregated file is smaller and deterministic).
  std::map<std::string, uint64_t> folded;
  for (size_t i = 0; i < events.size(); ++i) {
    const int64_t usec = self_ns[i] / 1000;
    if (usec <= 0) {
      continue;
    }
    std::vector<const std::string*> path;
    for (size_t cursor = i; cursor != kNoParent; cursor = nodes[cursor].parent) {
      path.push_back(&nodes[cursor].name);
    }
    std::string stack;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (!stack.empty()) {
        stack += ';';
      }
      // The format reserves ';' (separator) and ' ' (value delimiter).
      for (char c : **it) {
        stack += (c == ';' || c == ' ') ? '_' : c;
      }
    }
    folded[stack] += static_cast<uint64_t>(usec);
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
  std::string json = ChromeTraceJson(EventLog::Global(), profiler).Dump(/*pretty=*/false);
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

// TURNSTILE_AUDIT and TURNSTILE_TELEMETRY each take a number or a path.
struct NumberOrPath {
  long number = 0;             // > 0: the value parsed as a number in range
  const char* path = nullptr;  // non-null: the value is a path
};

// Reads `name`. Unset, empty and "0" leave both fields unset (feature off).
// A value that parses wholly as an integer follows EnvInt's contract: in
// [1, max] it is the number, outside it warns once and leaves the feature
// off. Any other value is a path.
NumberOrPath ReadNumberOrPath(const char* name, long max) {
  NumberOrPath out;
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') {
    return out;
  }
  char* end = nullptr;
  std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    out.path = value;
  } else {
    out.number = EnvInt(name, /*fallback=*/0, /*min=*/0, max);
  }
  return out;
}

void ApplyEnvObsConfigLocked() {
  // TURNSTILE_AUDIT=<capacity|path>: a number sizes the ring (ring only, no
  // spill; "1" = default size); a path gets every event as JSONL, the rest
  // drained at process exit. Read once here; programmatic Enable/Disable
  // calls run later and override.
  const NumberOrPath audit = ReadNumberOrPath("TURNSTILE_AUDIT", long{1} << 24);
  EventLog& log = EventLog::Global();
  if (audit.number > 0) {
    log.Enable(audit.number == 1 ? EventLog::kDefaultCapacity
                                 : static_cast<size_t>(audit.number));
  } else if (audit.path != nullptr) {
    log.Enable();
    if (log.SetSpillPath(audit.path)) {
      std::atexit(WriteEventLogAtExit);
    }
  }
  // TURNSTILE_PROFILE=<path>: the profiler plus the log its trace view reads.
  // Registered after the spill hook so it runs first at exit, before the
  // spill drains the ring.
  const char* profile = std::getenv("TURNSTILE_PROFILE");
  if (profile != nullptr && profile[0] != '\0') {
    Profiler::Global().Enable();
    if (!log.enabled()) {
      log.Enable();
    }
    g_profile_path = new std::string(profile);
    std::atexit(WriteProfileAtExit);
  }
  // TURNSTILE_TELEMETRY=<port|path>: a port starts the HTTP server on
  // 127.0.0.1:<port>; a path gets periodic JSONL snapshots.
  const NumberOrPath telemetry = ReadNumberOrPath("TURNSTILE_TELEMETRY", 65535);
  Status status = Status::Ok();
  if (telemetry.number > 0) {
    status = TelemetryServer::Global().Start(static_cast<int>(telemetry.number));
    if (status.ok()) {
      std::fprintf(stderr, "telemetry: serving /metrics /healthz /traces on 127.0.0.1:%d\n",
                   TelemetryServer::Global().port());
    }
  } else if (telemetry.path != nullptr) {
    status = TelemetrySnapshotWriter::Global().Start(telemetry.path);
    if (status.ok()) {
      std::fprintf(stderr, "telemetry: appending metric snapshots to %s\n", telemetry.path);
    }
  } else {
    return;
  }
  if (status.ok()) {
    std::atexit(StopTelemetryAtExit);
  } else {
    std::fprintf(stderr, "telemetry: %s\n", status.message().c_str());
  }
}

}  // namespace

}  // namespace obs
}  // namespace turnstile
