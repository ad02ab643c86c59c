#include "src/obs/event_log.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/support/json.h"

namespace turnstile {
namespace obs {

namespace {

const std::string& NameOf(Atom atom) { return AtomTable::Global().NameOf(atom); }

// The kind an event shows as in a message's journey. A decision recorded in
// place of a DIFT op's journey event (labeller attach, labelled binaryOp)
// shows as that op; the other decisions are not part of the journey.
bool JourneyKind(EventKind kind, EventKind* journey) {
  switch (kind) {
    case EventKind::kLabelAttach:
    case EventKind::kDeclassify:
      *journey = EventKind::kDiftLabel;
      return true;
    case EventKind::kMerge:
      *journey = EventKind::kDiftBinaryOp;
      return true;
    case EventKind::kInvokeLabeller:
    case EventKind::kFlowCheck:
    case EventKind::kSinkWrite:
      return false;
    default:
      *journey = kind;
      return true;
  }
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kInject:
      return "inject";
    case EventKind::kNodeEnter:
      return "node_enter";
    case EventKind::kNodeSend:
      return "node_send";
    case EventKind::kLoopTurn:
      return "loop_turn";
    case EventKind::kDiftLabel:
      return "dift_label";
    case EventKind::kDiftBinaryOp:
      return "dift_binary_op";
    case EventKind::kDiftCheck:
      return "dift_check";
    case EventKind::kDiftInvoke:
      return "dift_invoke";
    case EventKind::kViolation:
      return "violation";
    case EventKind::kLabelAttach:
      return "label_attach";
    case EventKind::kMerge:
      return "merge";
    case EventKind::kInvokeLabeller:
      return "invoke_labeller";
    case EventKind::kFlowCheck:
      return "flow_check";
    case EventKind::kDeclassify:
      return "declassify";
    case EventKind::kSinkWrite:
      return "sink_write";
  }
  return "?";
}

std::string Event::ToString() const {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " @%.3f (trace %llu)", vtime,
                static_cast<unsigned long long>(trace_id));
  std::string rendered = std::string(EventKindName(kind)) + "[" + subject + "]";
  if (!detail.empty()) {
    rendered += " " + detail;
  }
  rendered += buffer;
  return rendered;
}

std::string Event::Canonical() const {
  std::string out_str = "#" + std::to_string(seq) + " " + EventKindName(kind) + "[" +
                        subject + "]";
  out_str += " data=" + std::to_string(data) + " recv=" + std::to_string(receiver) +
             " out=" + std::to_string(out);
  if (kind == EventKind::kFlowCheck) {
    out_str += allowed ? " allow" : " deny";
  }
  if (!detail.empty()) {
    out_str += " " + detail;
  }
  if (!rule.empty()) {
    out_str += " rule='" + rule + "'";
  }
  out_str += " trace=" + std::to_string(trace_id);
  if (node != kAtomEmpty) {
    out_str += " node=" + NameOf(node);
  }
  if (app != kAtomEmpty) {
    out_str += " app=" + NameOf(app);
  }
  return out_str;
}

std::string Event::ToJsonLine() const {
  Json json = Json::Object();
  json.Set("seq", Json(static_cast<double>(seq)));
  json.Set("kind", Json(EventKindName(kind)));
  json.Set("subject", Json(subject));
  if (IsDecision(kind)) {
    json.Set("data", Json(static_cast<double>(data)));
    json.Set("receiver", Json(static_cast<double>(receiver)));
    json.Set("out", Json(static_cast<double>(out)));
  } else {
    json.Set("vtime", Json(vtime));
  }
  json.Set("start_ns", Json(start_ns));
  if (dur_ns != 0) {
    json.Set("dur_ns", Json(dur_ns));
  }
  if (kind == EventKind::kFlowCheck) {
    json.Set("allowed", Json(allowed));
  }
  if (!detail.empty()) {
    json.Set("detail", Json(detail));
  }
  if (!rule.empty()) {
    json.Set("rule", Json(rule));
  }
  json.Set("trace", Json(static_cast<double>(trace_id)));
  if (node != kAtomEmpty) {
    json.Set("node", Json(NameOf(node)));
  }
  if (app != kAtomEmpty) {
    json.Set("app", Json(NameOf(app)));
  }
  return json.Dump(/*pretty=*/false);
}

EventLog& EventLog::Global() {
  static EventLog* instance = new EventLog();  // never destroyed: handles
  return *instance;                            // must outlive static teardown
}

EventLog::EventLog(Metrics* metrics) {
  metrics_ = metrics != nullptr ? metrics : &Metrics::Global();
  for (int i = 0; i < kDecisionKindCount; ++i) {
    const auto kind = static_cast<EventKind>(static_cast<int>(kFirstDecisionKind) + i);
    metric_kind_[i] =
        metrics_->GetCounter(MetricWithLabel("audit.events_total", "kind", EventKindName(kind)));
  }
  metric_flows_allowed_ = metrics_->GetCounter("audit.flows_allowed");
  metric_flows_denied_ = metrics_->GetCounter("audit.flows_denied");
  metric_dropped_ = metrics_->GetCounter("audit.dropped_events");
  metric_app_events_ = metrics_->GetCounter(MetricWithLabel("audit.app_events", "app", ""));
}

void EventLog::Restart() {
  head_ = 0;
  size_ = 0;
  next_seq_ = 1;
  decisions_ = 0;
  dropped_ = 0;
  spilled_ = 0;
  current_ = TraceContext{};
  next_trace_ = 1;
  epoch_ = std::chrono::steady_clock::now();
  last_ns_ = 0;
}

void EventLog::Enable(size_t capacity) {
  enabled_ = true;
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.assign(capacity_, Event{});
  Restart();
}

void EventLog::Disable() {
  if (enabled_) {
    FlushSpill();
  }
  if (spill_ != nullptr) {
    std::fclose(spill_);
    spill_ = nullptr;
  }
  enabled_ = false;
  capacity_ = 0;
  ring_.clear();
  ring_.shrink_to_fit();
  Restart();
}

void EventLog::Clear() { Restart(); }

TraceContext EventLog::StartTrace(Atom origin) {
  current_ = TraceContext{next_trace_++, origin};
  if (enabled_) {
    Record(EventKind::kInject, NameOf(origin));
  }
  return current_;
}

void EventLog::set_app(const std::string& app) {
  const Atom atom = AtomTable::Global().Intern(app);
  if (atom == app_) {
    return;
  }
  app_ = atom;
  metric_app_events_ = metrics_->GetCounter(MetricWithLabel("audit.app_events", "app", app));
}

bool EventLog::SetSpillPath(const std::string& path) {
  if (spill_ != nullptr) {
    std::fclose(spill_);
  }
  spill_ = std::fopen(path.c_str(), "w");
  if (spill_ == nullptr) {
    std::fprintf(stderr, "event log: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  return true;
}

void EventLog::WriteSpillLine(const Event& event) {
  std::string line = event.ToJsonLine();
  std::fwrite(line.data(), 1, line.size(), spill_);
  std::fputc('\n', spill_);
  ++spilled_;
}

void EventLog::FlushSpill() {
  if (spill_ == nullptr || size_ == 0) {
    return;
  }
  for (size_t i = 0; i < size_; ++i) {
    WriteSpillLine(At(i));
  }
  std::fflush(spill_);
  head_ = 0;
  size_ = 0;  // drained: a later flush must not rewrite these events
}

int64_t EventLog::Now() {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
  last_ns_ = std::max(now, last_ns_ + 1);
  return last_ns_;
}

uint64_t EventLog::Record(Event event) {
  if (!enabled_) {
    return 0;
  }
  if (event.start_ns > 0) {
    event.dur_ns = Now() - event.start_ns;  // recorded after the work it spans
  } else {
    event.start_ns = Now();
  }
  const uint64_t seq = next_seq_++;
  event.seq = seq;
  event.trace_id = current_.id;
  event.node = current_.origin;
  event.app = app_;
  if (IsDecision(event.kind)) {
    ++decisions_;
    metric_kind_[static_cast<int>(event.kind) - static_cast<int>(kFirstDecisionKind)]
        ->Increment();
    metric_app_events_->Increment();
    if (event.kind == EventKind::kFlowCheck) {
      (event.allowed ? metric_flows_allowed_ : metric_flows_denied_)->Increment();
    }
  }
  if (size_ == capacity_) {
    // Ring full: spill the evicted event (append-only completeness) or count
    // it as dropped when no spill target is configured.
    if (spill_ != nullptr) {
      WriteSpillLine(ring_[head_]);
    } else {
      ++dropped_;
      metric_dropped_->Increment();
    }
  } else {
    ++size_;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  return seq;
}

uint64_t EventLog::Record(EventKind kind, const std::string& subject, std::string detail,
                          double vtime) {
  if (!enabled_) {
    return 0;
  }
  Event event;
  event.kind = kind;
  event.subject = subject;
  event.detail = std::move(detail);
  event.vtime = vtime;
  return Record(std::move(event));
}

void EventLog::Close(uint64_t seq) {
  // The ring holds seqs [next_seq_ - size_, next_seq_).
  if (!enabled_ || seq == 0 || seq >= next_seq_ || next_seq_ - seq > size_) {
    return;
  }
  Event& event = At(size_ - (next_seq_ - seq));
  event.dur_ns = Now() - event.start_ns;
}

std::vector<Event> EventLog::Snapshot() const {
  std::vector<Event> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(At(i));
  }
  return out;
}

std::vector<Event> EventLog::EventsForTrace(uint64_t trace_id) const {
  std::vector<Event> out;
  for (size_t i = 0; i < size_; ++i) {
    const Event& event = At(i);
    EventKind journey;
    if (event.trace_id == trace_id && JourneyKind(event.kind, &journey)) {
      out.push_back(event);
      out.back().kind = journey;
    }
  }
  return out;
}

std::vector<Event> EventLog::Decisions() const {
  std::vector<Event> out;
  for (size_t i = 0; i < size_; ++i) {
    if (IsDecision(At(i).kind)) {
      out.push_back(At(i));
    }
  }
  // The oldest buffered decision is the (decisions - buffered + 1)-th.
  uint64_t ordinal = decisions_ - out.size();
  for (Event& event : out) {
    event.seq = ++ordinal;
  }
  return out;
}

std::string EventLog::CanonicalLog() const {
  std::string out;
  for (const Event& event : Decisions()) {
    out += event.Canonical();
    out += '\n';
  }
  return out;
}

}  // namespace obs
}  // namespace turnstile
