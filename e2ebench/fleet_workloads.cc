// The two fleet workloads, driven through FleetRuntime's public API from one
// generator thread (this one) plus the fleet's two shard threads.
//
//   stream  - open loop (§6.2): every tenant fires on its own periodic
//             schedule; latency runs from each message's due time, so a stall
//             also delays the messages due after it.
//   chatter - closed loop: kMailboxCapacity injected messages outstanding per
//             shard, the runtime's own admission bound; latency runs from the
//             post.
//
// Completion is observed from outside. Per-shard mailboxes are FIFO and this
// thread is the only external producer, so the k-th message it posted to a
// shard is complete once that shard's processed() count, net of routed wire
// deliveries, exceeds k. The generator polls those counters between posts and
// while it waits, so a completion is stamped within one poll (about a
// microsecond) of the shard finishing it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "e2ebench/bench.h"
#include "src/obs/metrics.h"
#include "src/runtime/fleet.h"
#include "src/support/stopwatch.h"

namespace turnstile::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kStreamTenantsPerPair = 2;  // 27 apps x 3 rate classes x 2 = 162 tenants
// The stream's offered load, fixed so that every commit sees the same
// arrivals: under half of what two shards sustained on this mix on the
// machine the benchmark was defined on (815 msg/s), leaving room for that
// machine's slow spells. A faster commit shows as lower latency, a slower one
// as queueing and, past capacity, a throughput drop.
constexpr double kStreamRate = 300.0;
// Latency quantiles are taken per bin of this many seconds (400 messages).
constexpr double kStreamBinS = 1.0;
constexpr int kChatterTenantsPerPair = 2;  // 32 apps x 3 rate classes x 2 = 192 tenants
// Chatter restarts its fleet every epoch: a kExhaustive tracker keeps every
// value it ever labelled alive, so a tenant's memory grows with its messages
// (about 3 KB each): a 10 s closed loop would hold ~2.5 GB, an epoch ~0.3 GB.
constexpr double kChatterEpochS = 0.625;
constexpr int kWarmupMessages = 3;  // per tenant, before the window
constexpr double kRateMultiplier[] = {0.5, 1.0, 2.0};
constexpr double kCompletionTimeoutS = 60.0;
constexpr double kRampS = 0.1;  // chatter: mailboxes fill within this

bool IsPart2(const CorpusApp& app) {
  return app.bucket == CorpusBucket::kTurnstileOnly || app.bucket == CorpusBucket::kBothFind;
}

struct Tenant {
  const CorpusApp* app = nullptr;
  int shard = 0;
  int rate_class = 1;  // index into kRateMultiplier
  double phase = 0.0;  // stream: offset of the first message, in periods
  int wired_to = -1;   // chatter: tenant that receives this tenant's flow outputs
  bool wire_target = false;
  std::string id;
  int next_seq = 0;
};

struct FleetPlan {
  AppVersion version = AppVersion::kRoundTrip;
  uint64_t rng_seed = 0;
  std::vector<Tenant> tenants;
  size_t setup_errors = 0;
};

// A balanced design in seeded order: every (app, rate class) pair gets
// `per_pair` tenants split evenly over the shards, so no app is tied to a
// rate class and neither the mix nor any shard's load swings with the seed;
// the seed draws the tenant order and each tenant's phase.
std::vector<Tenant> DrawTenants(const std::vector<const CorpusApp*>& pool, int per_pair,
                                Rng* rng) {
  std::vector<Tenant> tenants;
  for (const CorpusApp* app : pool) {
    for (int rate_class = 0; rate_class < 3; ++rate_class) {
      for (int k = 0; k < per_pair; ++k) {
        Tenant t;
        t.app = app;
        t.rate_class = rate_class;
        t.shard = k % kShards;
        tenants.push_back(t);
      }
    }
  }
  Shuffle(&tenants, rng);
  for (Tenant& t : tenants) {
    t.phase = rng->NextDouble();
  }
  return tenants;
}

double RateWeightSum(const FleetPlan& plan) {
  double sum = 0.0;
  for (const Tenant& t : plan.tenants) {
    sum += kRateMultiplier[t.rate_class];
  }
  return sum;
}

std::vector<MixEntry> MixOf(const FleetPlan& plan) {
  const double tenants = static_cast<double>(plan.tenants.size());
  const double weights = RateWeightSum(plan);
  std::map<const CorpusApp*, MixEntry> by_app;
  for (const Tenant& t : plan.tenants) {
    MixEntry& entry = by_app[t.app];
    entry.app = t.app;
    entry.tenant_weight += 1.0 / tenants;
    entry.message_weight += kRateMultiplier[t.rate_class] / weights;
  }
  std::vector<MixEntry> mix;
  for (const Tenant& t : plan.tenants) {  // draw order, so the mix order is seeded too
    auto it = by_app.find(t.app);
    if (it != by_app.end()) {
      mix.push_back(it->second);
      by_app.erase(it);
    }
  }
  return mix;
}

// Builds the plan's fleet and starts it, adding the Start() wall to `setup`.
std::unique_ptr<FleetRuntime> StartFleet(FleetPlan* plan, Samples* setup, Report* report) {
  FleetRuntime::Options options;
  options.shards = kShards;
  options.mailbox_capacity = kMailboxCapacity;
  options.version = plan->version;
  options.tier = kTier;
  options.rng_seed = plan->rng_seed;
  auto fleet = std::make_unique<FleetRuntime>(options);
  for (Tenant& t : plan->tenants) {
    t.id = fleet->AddApp(*t.app, t.shard);
    t.next_seq = 0;
  }
  for (const Tenant& t : plan->tenants) {
    if (t.wired_to >= 0) {
      const Status wired = fleet->Wire(t.id, plan->tenants[static_cast<size_t>(t.wired_to)].id);
      report->Check(wired.ok(), "wire " + t.id + ": " + wired.ToString());
    }
  }
  Stopwatch watch;
  const Status started = fleet->Start();
  setup->Add(watch.ElapsedSeconds());
  fleet->Drain();  // nothing posted yet: returns at once, leaving the fleet quiescent
  std::vector<std::string> errors = fleet->errors();
  if (!started.ok() && errors.empty()) {
    errors.push_back("fleet setup: " + started.ToString());
  }
  plan->setup_errors = errors.size();
  report->Tally(plan->tenants.size(), errors);
  return fleet;
}

void Warmup(FleetRuntime* fleet, FleetPlan* plan) {
  for (int k = 0; k < kWarmupMessages; ++k) {
    for (Tenant& t : plan->tenants) {
      fleet->Post(t.id, t.next_seq++, /*record=*/false);
    }
  }
  fleet->Drain();
}

// One injected message of a timed window; times are seconds since the
// window's origin, done_at < 0 until the message completes.
struct Message {
  double due_at = 0.0;
  double post_at = 0.0;
  double done_at = -1.0;
  int shard = 0;
};

// Stamps completions of the generator's posts from the shards' counters (see
// the file comment).
class CompletionTracker {
 public:
  CompletionTracker(const FleetRuntime& fleet, Clock::time_point origin)
      : fleet_(fleet), origin_(origin) {
    for (int s = 0; s < fleet.shard_count(); ++s) {
      const Shard& shard = fleet.shard(s);
      routed_.push_back(shard.shard_context()->metrics().GetCounter("shard.wire_in"));
      routed_base_.push_back(routed_.back()->value());
      base_.push_back(shard.processed() - routed_base_.back());
    }
    queue_.resize(base_.size());
    posted_.assign(base_.size(), 0);
    done_.assign(base_.size(), 0);
  }

  double Now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  void Posted(int shard, size_t index) {
    queue_[static_cast<size_t>(shard)].push_back(index);
    ++posted_[static_cast<size_t>(shard)];
  }
  uint64_t outstanding(int shard) const {
    return posted_[static_cast<size_t>(shard)] - done_[static_cast<size_t>(shard)];
  }
  uint64_t outstanding() const {
    uint64_t total = 0;
    for (size_t s = 0; s < posted_.size(); ++s) {
      total += posted_[s] - done_[s];
    }
    return total;
  }
  uint64_t routed() const {
    uint64_t total = 0;
    for (size_t s = 0; s < routed_.size(); ++s) {
      total += routed_[s]->value() - routed_base_[s];
    }
    return total;
  }

  // Stamps every message the shards finished since the last poll.
  void Poll(std::vector<Message>* messages) {
    const double now = Now();
    for (size_t s = 0; s < base_.size(); ++s) {
      // processed() is read first: a routed delivery that starts in between
      // only delays a stamp, it never stamps early.
      const int64_t processed = static_cast<int64_t>(fleet_.shard(static_cast<int>(s)).processed());
      const int64_t routed = static_cast<int64_t>(routed_[s]->value());
      const int64_t finished = processed - routed - static_cast<int64_t>(base_[s]);
      while (static_cast<int64_t>(done_[s]) < finished && !queue_[s].empty()) {
        (*messages)[queue_[s].front()].done_at = now;
        queue_[s].pop_front();
        ++done_[s];
      }
    }
  }

  // Polls until every posted message completed; false on timeout.
  bool WaitAll(std::vector<Message>* messages) {
    const double deadline = Now() + kCompletionTimeoutS;
    while (outstanding() > 0) {
      Poll(messages);
      if (Now() > deadline) {
        return false;
      }
    }
    return true;
  }

 private:
  const FleetRuntime& fleet_;
  const Clock::time_point origin_;
  std::vector<obs::Counter*> routed_;  // shard.wire_in: routed deliveries started
  std::vector<uint64_t> routed_base_;
  std::vector<uint64_t> base_;  // processed minus routed when the tracker started
  std::vector<std::deque<size_t>> queue_;  // per shard: message indices in post order
  std::vector<uint64_t> posted_;
  std::vector<uint64_t> done_;
};

// Latency, queue wait, service and backlog over one or more windows.
// latency_p50_ms and latency_p99_ms are the fast quartile over fixed-length
// bins of each bin's quantile (see QuartileOfBins); the pooled quantiles are
// printed alongside.
struct WindowStats {
  std::vector<Samples> latency_bins;
  Samples latency;
  Samples queue;
  Samples service;
  uint64_t depth_max = 0;
  double post_s = 0.0;  // generator time spent posting or waiting for room
  size_t posted = 0;

  // Under per-shard FIFO a message starts when it was posted or when its
  // predecessor on the shard finished, whichever is later; the rest of its
  // latency is service. The backlog a post met is the number of earlier
  // messages on its shard not yet finished. Messages bin by due time into
  // whole bins of `bin_s` within `window_s`.
  void Add(const std::vector<Message>& messages, double generator_s, double window_s,
           double bin_s) {
    const size_t first_bin = latency_bins.size();
    const size_t bins = std::max<size_t>(1, static_cast<size_t>(window_s / bin_s + 1e-9));
    latency_bins.resize(first_bin + bins);
    std::vector<double> previous_done(kShards, -1e300);
    std::vector<std::deque<double>> in_flight(kShards);
    for (const Message& m : messages) {
      if (m.done_at < 0) {
        continue;
      }
      const size_t s = static_cast<size_t>(m.shard);
      while (!in_flight[s].empty() && in_flight[s].front() <= m.post_at) {
        in_flight[s].pop_front();
      }
      depth_max = std::max<uint64_t>(depth_max, in_flight[s].size());
      in_flight[s].push_back(m.done_at);
      const double start = std::max(m.post_at, previous_done[s]);
      previous_done[s] = m.done_at;
      const size_t bin = static_cast<size_t>(std::max(0.0, m.due_at) / bin_s);
      if (bin < bins) {
        latency_bins[first_bin + bin].Add(m.done_at - m.due_at);
      }
      latency.Add(m.done_at - m.due_at);
      queue.Add(start - m.post_at);
      service.Add(m.done_at - start);
    }
    post_s += generator_s;
    posted += messages.size();
  }

  void Publish(Report* report) {
    const double p50 = QuartileOfBins(&latency_bins, 0.5, 0.25);
    const double p99 = QuartileOfBins(&latency_bins, 0.99, 0.25);
    report->Set("latency_p50_ms", p50 * 1e3);
    report->Set("latency_p99_ms", p99 * 1e3);
    report->Set("runtime.queue_wait_p50_ms", queue.Median() * 1e3);
    report->Set("runtime.queue_wait_p99_ms", queue.Quantile(0.99) * 1e3);
    report->Set("runtime.service_p50_ms", service.Median() * 1e3);
    report->Set("runtime.mailbox_depth_max", static_cast<double>(depth_max));
    report->Set("runtime.post_stall_ms",
                posted == 0 ? 0.0 : post_s / static_cast<double>(posted) * 1e3);
    report->Set("bench.latency_samples", static_cast<double>(latency.size()));
    std::printf("latency: fast quartile of %zu bins: p50 %.4g ms, p99 %.4g ms; pooled %s\n",
                latency_bins.size(), p50 * 1e3, p99 * 1e3, latency.Describe(1e3, "ms").c_str());
    std::printf("queue wait: %s\n", queue.Describe(1e3, "ms").c_str());
    std::printf("service: %s\n", service.Describe(1e3, "ms").c_str());
  }
};

// Counts deliveries (failed when an instance reported an error or a message
// never completed) after the fleet stopped.
void TallyDeliveries(const FleetRuntime& fleet, const FleetPlan& plan,
                     const std::vector<Message>& messages, bool completed, Report* report) {
  std::vector<std::string> failures;
  const std::vector<std::string> errors = fleet.errors();
  for (size_t i = plan.setup_errors; i < errors.size(); ++i) {
    failures.push_back("delivery: " + errors[i]);
  }
  if (!completed) {
    failures.push_back("messages still outstanding after the completion timeout");
  }
  report->Tally(messages.size(), failures);
}

// One tenant per distinct app (the first drawn that is neither end of a
// wire) must produce io and violations byte-identical to a single-threaded
// replay of the same seed and sequence numbers. Returns the tenants checked.
size_t CheckTenants(const FleetPlan& plan, const FleetRuntime& fleet, Report* report) {
  std::set<const CorpusApp*> checked;
  for (const Tenant& t : plan.tenants) {
    if (t.wired_to >= 0 || t.wire_target || !checked.insert(t.app).second) {
      continue;
    }
    AppRuntime* runtime = fleet.runtime_of(t.id);
    auto reference = ReferenceRun(*t.app, plan.version, plan.rng_seed, t.next_seq);
    bool same = runtime != nullptr && reference.ok();
    if (same) {
      const Outcome got = Collect(*runtime);
      same = got.io == reference->io && got.violations == reference->violations;
    }
    report->Check(same, t.id + ": output differs from the single-threaded replay " +
                            reference.status().ToString());
  }
  return checked.size();
}

void ReportLayers(const FleetPlan& plan, int messages, bool with_original, Report* report) {
  const std::vector<MixEntry> mix = MixOf(plan);
  ReportReplayLayers(mix, plan.version, plan.rng_seed, messages, with_original, report);
  ReportSetupLayers(mix, plan.version, plan.rng_seed, report);
}

}  // namespace

void RunStream(const RunConfig& config, Report* report) {
  std::vector<const CorpusApp*> pool;
  for (const CorpusApp& app : Corpus()) {
    if (IsPart2(app)) {
      pool.push_back(&app);
    }
  }
  report->Check(pool.size() == 27, "stream: expected the 27 Part-2 apps");
  Rng draw(config.seed);
  FleetPlan plan;
  plan.version = AppVersion::kRoundTrip;
  plan.rng_seed = MessageSeed(config.seed);
  plan.tenants = DrawTenants(pool, kStreamTenantsPerPair, &draw);

  const double weights = RateWeightSum(plan);
  std::vector<std::pair<double, int>> schedule;  // (due time, tenant)
  for (size_t i = 0; i < plan.tenants.size(); ++i) {
    const Tenant& t = plan.tenants[i];
    const double period = weights / (kStreamRate * kRateMultiplier[t.rate_class]);
    for (double at = t.phase * period; at < config.seconds; at += period) {
      schedule.emplace_back(at, static_cast<int>(i));
    }
  }
  std::sort(schedule.begin(), schedule.end());
  std::printf("stream: %zu tenants of %zu apps, kRoundTrip; offered %.0f msg/s (%zu messages)\n",
              plan.tenants.size(), pool.size(), kStreamRate, schedule.size());

  Samples setup;
  std::unique_ptr<FleetRuntime> fleet;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet.reset();  // the destructor stops and joins the previous fleet first
    fleet = StartFleet(&plan, &setup, report);
  }
  report->Set("setup_s", setup.Median());
  std::printf("setup: Start() of %zu tenants: %s\n", plan.tenants.size(),
              setup.Describe(1.0, "s").c_str());
  Warmup(fleet.get(), &plan);

  std::vector<Message> messages(schedule.size());
  Samples late;
  double post_s = 0.0;
  CompletionTracker tracker(*fleet, Clock::now() + std::chrono::milliseconds(20));
  for (size_t e = 0; e < schedule.size(); ++e) {
    Tenant& t = plan.tenants[static_cast<size_t>(schedule[e].second)];
    Message& m = messages[e];
    m.due_at = schedule[e].first;
    m.shard = t.shard;
    while (tracker.Now() < m.due_at) {
      tracker.Poll(&messages);
    }
    const double before = tracker.Now();
    late.Add(before - m.due_at);
    fleet->Post(t.id, t.next_seq++);
    m.post_at = tracker.Now();
    post_s += m.post_at - before;
    tracker.Posted(t.shard, e);
  }
  const bool completed = tracker.WaitAll(&messages);
  double last_done = 0.0;
  for (const Message& m : messages) {
    last_done = std::max(last_done, m.done_at);
  }
  fleet->Drain();
  fleet->Stop();

  TallyDeliveries(*fleet, plan, messages, completed, report);
  WindowStats window;
  window.Add(messages, post_s, config.seconds, kStreamBinS);
  window.Publish(report);
  // Completed over the span they took: the offered rate unless a backlog
  // pushed completions past the window.
  const double throughput =
      static_cast<double>(messages.size()) / std::max(config.seconds, last_done);
  report->Set("throughput_msgs_per_s", throughput);
  report->Set("bench.gen_late_p99_ms", late.Quantile(0.99) * 1e3);
  std::printf("throughput: %.2f msg/s completed of %.0f offered; generator late: %s\n",
              throughput, kStreamRate, late.Describe(1e3, "ms").c_str());
  const size_t checked = CheckTenants(plan, *fleet, report);
  std::printf("checked: %zu tenants match single-threaded replays\n", checked);
  if (config.trace) {
    ReportLayers(plan, /*messages=*/12, /*with_original=*/true, report);
  }
}

void RunChatter(const RunConfig& config, Report* report) {
  std::vector<const CorpusApp*> pool;
  for (const CorpusApp& app : Corpus()) {
    if (!IsPart2(app) && !app.entry_kind.empty() &&
        app.source.find("JSON.parse") == std::string::npos) {
      pool.push_back(&app);
    }
  }
  report->Check(pool.size() == 32, "chatter: expected 32 apps outside Part 2 with entry points");
  FleetPlan plan;
  plan.version = AppVersion::kExhaustive;
  plan.rng_seed = MessageSeed(config.seed);

  // Wire sources must emit flow outputs, and wire targets must take every
  // app's outputs without an error, so that no delivery fails.
  std::vector<Json> payloads;
  std::set<const CorpusApp*> emitters;
  for (const CorpusApp* app : pool) {
    auto sends = CaptureTerminalSends(*app, plan.version, plan.rng_seed, kWarmupMessages);
    report->Check(sends.ok(), app->name + ": output capture: " + sends.status().ToString());
    if (sends.ok() && !sends->empty()) {
      emitters.insert(app);
      payloads.insert(payloads.end(), sends->begin(), sends->end());
    }
  }
  std::set<const CorpusApp*> acceptors;
  for (const CorpusApp* app : pool) {
    if (AcceptsPayloads(*app, plan.version, payloads)) {
      acceptors.insert(app);
    }
  }

  // Every eighth tenant, drawn among those whose app emits outputs, is wired
  // to a random accepting tenant on the other shard.
  Rng draw(config.seed);
  plan.tenants = DrawTenants(pool, kChatterTenantsPerPair, &draw);
  std::vector<int> sources;
  for (size_t i = 0; i < plan.tenants.size(); ++i) {
    if (emitters.count(plan.tenants[i].app) > 0) {
      sources.push_back(static_cast<int>(i));
    }
  }
  Shuffle(&sources, &draw);
  sources.resize(std::min(sources.size(), plan.tenants.size() / 8));
  std::set<int> taken(sources.begin(), sources.end());
  size_t wires = 0;
  for (int source : sources) {
    Tenant& src = plan.tenants[static_cast<size_t>(source)];
    std::vector<int> targets;
    for (size_t j = 0; j < plan.tenants.size(); ++j) {
      const Tenant& dst = plan.tenants[j];
      if (dst.shard != src.shard && acceptors.count(dst.app) > 0 &&
          taken.count(static_cast<int>(j)) == 0) {
        targets.push_back(static_cast<int>(j));
      }
    }
    if (targets.empty()) {
      continue;
    }
    const int target = targets[draw.NextBelow(targets.size())];
    src.wired_to = target;
    plan.tenants[static_cast<size_t>(target)].wire_target = true;
    taken.insert(target);
    ++wires;
  }
  // Closed-loop order: a seeded interleaving in which a tenant of rate class
  // c appears 2^c times per cycle.
  std::vector<int> pattern;
  for (size_t i = 0; i < plan.tenants.size(); ++i) {
    for (int k = 0; k < (1 << plan.tenants[i].rate_class); ++k) {
      pattern.push_back(static_cast<int>(i));
    }
  }
  Shuffle(&pattern, &draw);
  const int epochs = std::max(1, static_cast<int>(std::lround(config.seconds / kChatterEpochS)));
  const double epoch_s = config.seconds / epochs;
  std::printf("chatter: %zu tenants of %zu apps, kExhaustive, %zu cross-shard wires (%zu "
              "emitting apps, %zu accepting); %d epochs of %.2f s\n",
              plan.tenants.size(), pool.size(), wires, emitters.size(), acceptors.size(), epochs,
              epoch_s);

  Samples setup;
  Samples rates;  // steady completions per second, one sample per epoch
  WindowStats window;
  uint64_t hops = 0;
  size_t checked = 0;
  size_t cursor = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::unique_ptr<FleetRuntime> fleet = StartFleet(&plan, &setup, report);
    Warmup(fleet.get(), &plan);
    std::vector<Message> messages;
    double stall_s = 0.0;
    CompletionTracker tracker(*fleet, Clock::now());
    while (true) {
      tracker.Poll(&messages);
      const double now = tracker.Now();
      if (now >= epoch_s) {
        break;
      }
      Tenant& t = plan.tenants[static_cast<size_t>(pattern[cursor])];
      if (tracker.outstanding(t.shard) >= kMailboxCapacity) {
        // Backpressure: wait here instead of blocking inside Post, so that
        // completions keep being stamped while the shard catches up.
        while (tracker.outstanding(t.shard) >= kMailboxCapacity) {
          tracker.Poll(&messages);
        }
        stall_s += tracker.Now() - now;
        continue;
      }
      cursor = (cursor + 1) % pattern.size();
      Message m;
      m.due_at = now;
      m.shard = t.shard;
      messages.push_back(m);
      fleet->Post(t.id, t.next_seq++);
      messages.back().post_at = tracker.Now();
      stall_s += messages.back().post_at - now;
      tracker.Posted(t.shard, messages.size() - 1);
    }
    const bool completed = tracker.WaitAll(&messages);
    fleet->Drain();
    fleet->Stop();
    hops += tracker.routed();

    TallyDeliveries(*fleet, plan, messages, completed, report);
    window.Add(messages, stall_s, epoch_s, epoch_s);
    // Completions per second once the mailboxes have filled.
    double steady = 0.0;
    for (const Message& m : messages) {
      steady += m.done_at >= kRampS && m.done_at < epoch_s ? 1.0 : 0.0;
    }
    rates.Add(steady / (epoch_s - kRampS));
    checked += CheckTenants(plan, *fleet, report);
  }
  report->Set("setup_s", setup.Median());
  std::printf("setup: Start() of %zu tenants: %s\n", plan.tenants.size(),
              setup.Describe(1.0, "s").c_str());
  window.Publish(report);
  const double throughput = rates.Quantile(0.75);  // the fast quartile of epochs
  report->Set("throughput_msgs_per_s", throughput);
  report->Set("runtime.wire_hops", static_cast<double>(hops));
  std::printf("throughput: fast quartile %.0f injected msg/s over %zu epochs, median %.0f (%zu "
              "posted, %llu wire hops)\n",
              throughput, rates.size(), rates.Median(), window.posted,
              static_cast<unsigned long long>(hops));
  std::printf("checked: %zu tenants match single-threaded replays\n", checked);
  if (config.trace) {
    ReportLayers(plan, /*messages=*/300, /*with_original=*/false, report);
  }
}

}  // namespace turnstile::e2e
