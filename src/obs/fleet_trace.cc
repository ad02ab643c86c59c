#include "src/obs/fleet_trace.h"

#include <algorithm>
#include <set>
#include <utility>

namespace turnstile {
namespace obs {

void FleetTraceAssembler::AddContext(int shard, std::string lane, std::string source,
                                     std::vector<Event> events,
                                     std::vector<FleetSpanBinding> bindings) {
  Context context;
  context.shard = shard;
  context.lane = std::move(lane);
  context.source = std::move(source);
  context.events = std::move(events);
  context.bindings = std::move(bindings);
  contexts_.push_back(std::move(context));
}

std::vector<uint64_t> FleetTraceAssembler::FleetTraceIds() const {
  std::set<uint64_t> ids;
  for (const Context& context : contexts_) {
    for (const FleetSpanBinding& binding : context.bindings) {
      if (binding.fleet_trace_id != 0) {
        ids.insert(binding.fleet_trace_id);
      }
    }
  }
  return std::vector<uint64_t>(ids.begin(), ids.end());
}

std::vector<FleetTraceAssembler::Hop> FleetTraceAssembler::HopsOf(
    uint64_t fleet_trace_id) const {
  std::vector<Hop> hops;
  for (const Context& context : contexts_) {
    for (const FleetSpanBinding& binding : context.bindings) {
      if (binding.fleet_trace_id != fleet_trace_id) {
        continue;
      }
      Hop hop;
      hop.shard = context.shard;
      hop.lane = context.lane;
      hop.source = context.source;
      hop.hop = binding.hop;
      hop.local_trace_id = binding.local_trace_id;
      hop.parent_span = binding.parent_span;
      for (const Event& event : context.events) {
        if (event.trace_id == binding.local_trace_id) {
          hop.events.push_back(event);
        }
      }
      hops.push_back(std::move(hop));
    }
  }
  std::sort(hops.begin(), hops.end(), [](const Hop& a, const Hop& b) {
    if (a.hop != b.hop) {
      return a.hop < b.hop;
    }
    if (a.shard != b.shard) {
      return a.shard < b.shard;
    }
    return a.local_trace_id < b.local_trace_id;
  });
  return hops;
}

uint64_t FleetTraceAssembler::wire_hops() const {
  uint64_t crossings = 0;
  for (const Context& context : contexts_) {
    for (const FleetSpanBinding& binding : context.bindings) {
      if (binding.fleet_trace_id != 0 && binding.hop > 0) {
        ++crossings;
      }
    }
  }
  return crossings;
}

Json FleetTraceAssembler::ChromeTraceJson() const {
  Json events = Json::Array();

  // Lane metadata: one thread per shard under a single "turnstile fleet"
  // process, so Perfetto groups every shard's spans side by side.
  Json process_meta = Json::Object();
  process_meta.Set("ph", Json("M"));
  process_meta.Set("name", Json("process_name"));
  process_meta.Set("pid", Json(0));
  process_meta.Set("tid", Json(0));
  Json process_args = Json::Object();
  process_args.Set("name", Json("turnstile fleet"));
  process_meta.Set("args", std::move(process_args));
  events.Append(std::move(process_meta));

  std::set<int> shards_seen;
  for (const Context& context : contexts_) {
    if (!shards_seen.insert(context.shard).second) {
      continue;
    }
    Json thread_meta = Json::Object();
    thread_meta.Set("ph", Json("M"));
    thread_meta.Set("name", Json("thread_name"));
    thread_meta.Set("pid", Json(0));
    thread_meta.Set("tid", Json(context.shard));
    Json args = Json::Object();
    args.Set("name", Json(context.lane));
    thread_meta.Set("args", std::move(args));
    events.Append(std::move(thread_meta));
  }

  // Synthetic causal timeline: fleet traces in id order, hops in hop order,
  // 2us per event — readable layout without wall-clock timestamps.
  int64_t cursor = 0;
  for (uint64_t fleet_id : FleetTraceIds()) {
    std::vector<Hop> hops = HopsOf(fleet_id);
    // ts of a hop's first/last event, keyed by index — flow arrows bind here.
    std::vector<std::pair<int64_t, int64_t>> spans(hops.size(), {0, 0});
    for (size_t h = 0; h < hops.size(); ++h) {
      const Hop& hop = hops[h];
      spans[h].first = cursor;
      for (const Event& event : hop.events) {
        Json out = Json::Object();
        out.Set("ph", Json("X"));
        out.Set("name", Json(std::string(EventKindName(event.kind)) + ":" + event.subject));
        out.Set("cat", Json("fleet"));
        out.Set("pid", Json(0));
        out.Set("tid", Json(hop.shard));
        out.Set("ts", Json(static_cast<int64_t>(cursor)));
        out.Set("dur", Json(1));
        Json args = Json::Object();
        args.Set("fleet_trace", Json(fleet_id));
        args.Set("hop", Json(static_cast<int>(hop.hop)));
        args.Set("local_trace", Json(event.trace_id));
        args.Set("source", Json(hop.source));
        if (!event.detail.empty()) {
          args.Set("detail", Json(event.detail));
        }
        args.Set("vtime", Json(event.vtime));
        out.Set("args", std::move(args));
        events.Append(std::move(out));
        spans[h].second = cursor;
        cursor += 2;
      }
      if (hop.events.empty()) {
        spans[h].second = cursor;
        cursor += 2;
      }
    }
    // Flow arrows: each hop > 0 binds back to the hop whose local trace id is
    // its parent_span (falling back to the previous hop index when eviction
    // lost the parent's events).
    for (size_t h = 0; h < hops.size(); ++h) {
      if (hops[h].hop == 0) {
        continue;
      }
      size_t parent = h > 0 ? h - 1 : 0;
      for (size_t p = 0; p < hops.size(); ++p) {
        if (hops[p].hop + 1 == hops[h].hop && hops[p].local_trace_id == hops[h].parent_span) {
          parent = p;
          break;
        }
      }
      const uint64_t flow_id = (fleet_id << 8) | (hops[h].hop & 0xFF);
      Json start = Json::Object();
      start.Set("ph", Json("s"));
      start.Set("id", Json(flow_id));
      start.Set("name", Json("wire"));
      start.Set("cat", Json("fleet"));
      start.Set("pid", Json(0));
      start.Set("tid", Json(hops[parent].shard));
      start.Set("ts", Json(spans[parent].second));
      events.Append(std::move(start));
      Json finish = Json::Object();
      finish.Set("ph", Json("f"));
      finish.Set("bp", Json("e"));
      finish.Set("id", Json(flow_id));
      finish.Set("name", Json("wire"));
      finish.Set("cat", Json("fleet"));
      finish.Set("pid", Json(0));
      finish.Set("tid", Json(hops[h].shard));
      finish.Set("ts", Json(spans[h].first));
      events.Append(std::move(finish));
    }
  }

  Json root = Json::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", Json("ms"));
  return root;
}

}  // namespace obs
}  // namespace turnstile
