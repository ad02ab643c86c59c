// Observability: post-drain assembly of per-context event logs into one
// fleet-wide distributed trace (ISSUE 10).
//
// Each fleet instance records into its own context-private EventLog
// with *local* trace ids (1, 2, 3... per context). The shard runtime binds
// every local trace to the FleetTraceContext of the envelope that started it
// — {fleet_trace_id, parent_span, hop} — where `hop` counts wire crossings
// and `parent_span` is the source shard's local trace id the hop continued
// from. This assembler joins the two: feed it one AddContext() per instance
// (its event snapshot + its bindings) and query the stitched result.
//
// Everything here is quiescent-time data transformation: the caller owns the
// snapshots (taken after Drain()/Stop(); per-context event logs are not
// thread-safe), and the assembler never touches live runtime state.
//
// The Chrome export draws one lane (tid) per *shard* — instances multiplex
// onto their shard's lane, mirroring the threading reality — and a flow
// arrow (ph "s" -> "f") for every wire crossing. Each context's log stamps
// wall time against its own Enable() epoch, so stamps do not line up across
// instances; the export lays fleet traces out on a synthetic causal
// timeline instead: hops of one fleet trace in hop order, events within a
// hop in ring order.
#ifndef TURNSTILE_SRC_OBS_FLEET_TRACE_H_
#define TURNSTILE_SRC_OBS_FLEET_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event_log.h"
#include "src/support/json.h"

namespace turnstile {
namespace obs {

// One local trace's place in a fleet trace, recorded by the shard that
// processed the envelope which started it.
struct FleetSpanBinding {
  uint64_t local_trace_id = 0;  // id inside the owning context's event log
  uint64_t fleet_trace_id = 0;  // fleet-wide id minted at injection
  uint64_t parent_span = 0;     // source-side local trace id (0 = injection root)
  uint32_t hop = 0;             // wire crossings before this span
};

class FleetTraceAssembler {
 public:
  // Registers one instance's log snapshot: `shard` keys the Chrome lane, `lane` is
  // its display name ("shard0"), `source` identifies the instance (the
  // fleet-wide app id, e.g. "camera-motion#0").
  void AddContext(int shard, std::string lane, std::string source,
                  std::vector<Event> events, std::vector<FleetSpanBinding> bindings);

  // One stitched span of a fleet trace: the events a single local trace
  // recorded on one instance, plus where it sits in the cross-shard chain.
  struct Hop {
    int shard = 0;
    std::string lane;
    std::string source;
    uint32_t hop = 0;
    uint64_t local_trace_id = 0;
    uint64_t parent_span = 0;
    std::vector<Event> events;  // ring order; may be empty after eviction
  };

  // Distinct fleet trace ids seen across every binding, ascending.
  std::vector<uint64_t> FleetTraceIds() const;
  size_t fleet_trace_count() const { return FleetTraceIds().size(); }
  // The hops of one fleet trace, ordered by (hop, shard, local trace id).
  std::vector<Hop> HopsOf(uint64_t fleet_trace_id) const;
  // Total wire crossings across all fleet traces (bindings with hop > 0).
  uint64_t wire_hops() const;
  size_t context_count() const { return contexts_.size(); }

  // {"traceEvents": [...]}: lane-per-shard "X" events on the synthetic causal
  // timeline plus "s"/"f" flow arrows for wire crossings; loadable in
  // Perfetto / chrome://tracing.
  Json ChromeTraceJson() const;

 private:
  struct Context {
    int shard = 0;
    std::string lane;
    std::string source;
    std::vector<Event> events;
    std::vector<FleetSpanBinding> bindings;
  };

  std::vector<Context> contexts_;
};

}  // namespace obs
}  // namespace turnstile

#endif  // TURNSTILE_SRC_OBS_FLEET_TRACE_H_
