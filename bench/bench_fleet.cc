// Fleet scaling bench: thousands of app instances sharded over worker
// threads, driven with hundreds of thousands of workload messages at mixed
// per-tenant rates through the FleetRuntime mailbox router.
//
//   bench_fleet [--instances=N] [--shards=N] [--messages=N] [--warmup=N]
//               [--trace-export=PATH] [--json[=PATH]]
//
//   --instances=N   tenant count (default 1000). Tenants round-robin over the
//                   managed corpus apps and fall into three rate classes:
//                   every third instance receives half the base message
//                   count, every third double — the mixed-rate fleet the
//                   paper's multi-tenant setting implies. `--shards=M
//                   --instances=M` gives one instance per thread, the
//                   multi-instance scaling shape.
//   --shards=N      worker shard count (default 4). Run with --shards=1 and
//                   --shards=N to measure the sharding speedup;
//                   EXPERIMENTS.md records both.
//   --messages=N    base messages per instance (default:
//                   TURNSTILE_BENCH_MESSAGES, then 200).
//   --warmup=N      unrecorded messages per instance before the timed
//                   window (default 5; 0 times every message).
//   --trace-export=PATH
//                   enables fleet trace propagation (per-context event logs +
//                   fleet trace ids), wires instance #0 -> instance #1 so
//                   messages cross shards, and writes the assembled Chrome
//                   trace (lane per shard, flow arrows per wire hop) to PATH
//                   after the run. Perfetto / chrome://tracing loads it.
//
// Reports per-shard and aggregate p50/p90/p99 message-processing latency —
// merged from every instance's context-private `multi.proc_seconds`
// histogram via obs::Histogram::Merge, after Drain(), so the hot path never
// locks — plus wall-clock throughput over the timed window, now split into
// queue-wait (enqueue->dequeue, `fleet.queue_seconds`) vs processing
// (`multi.proc_seconds`) so mailbox sit-time is no longer conflated with
// drive time. Everything lands in the global registry under `fleet.*` for
// the --json snapshot (BENCH_fleet.json in CI).
//
// When TURNSTILE_TELEMETRY started the live HTTP server, the fleet attaches
// to it after Start(): /metrics serves the per-shard health series and
// /healthz the per-shard liveness while the bench runs.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/profiler.h"
#include "src/runtime/fleet.h"
#include "tools/cli_args.h"

namespace turnstile {
namespace {

// Message-count multiplier for a tenant's rate class (slow / steady / hot).
int ClassMessages(size_t instance, int base) {
  switch (instance % 3) {
    case 0:
      return base / 2 > 0 ? base / 2 : 1;
    case 1:
      return base;
    default:
      return base * 2;
  }
}

void PublishQuantiles(obs::Metrics& global, const obs::Histogram& hist,
                      const std::string& scope) {
  global.GetFloatGauge("fleet.proc_p50_seconds" + scope)->Set(hist.Quantile(0.50));
  global.GetFloatGauge("fleet.proc_p90_seconds" + scope)->Set(hist.Quantile(0.90));
  global.GetFloatGauge("fleet.proc_p99_seconds" + scope)->Set(hist.Quantile(0.99));
}

int Main(int argc, char** argv) {
  // Fleet instances run on isolated contexts, which never apply process-env
  // obs config on their own — opt the bench process in explicitly so
  // TURNSTILE_TELEMETRY=<port|path> works for live soaks (EXPERIMENTS.md).
  obs::ApplyEnvObsConfig();
  int instances = 1000;
  int shards = 4;
  int base_messages = BenchMessageCount(/*fallback=*/200);
  int warmup = 5;
  std::string trace_export;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    cli::FlagParse parse;
    if ((parse = cli::ParseIntFlag(arg, "--instances", "bench_fleet", 1, 100000, &instances)) !=
        cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseIntFlag(arg, "--shards", "bench_fleet", 1, 256, &shards)) !=
               cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseIntFlag(arg, "--messages", "bench_fleet", 1, 1000000,
                                          &base_messages)) != cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseIntFlag(arg, "--warmup", "bench_fleet", 0, 100000, &warmup)) !=
               cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if ((parse = cli::ParseStringFlag(arg, "--trace-export", "bench_fleet", "path",
                                             &trace_export)) != cli::FlagParse::kNoMatch) {
      if (parse == cli::FlagParse::kBad) {
        return 2;
      }
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      // handled by MaybeDumpMetricsSnapshot after the run
    } else {
      std::fprintf(stderr, "bench_fleet: unknown argument '%s'\n", arg.c_str());
      std::fprintf(stderr,
                   "usage: bench_fleet [--instances=N] [--shards=N] [--messages=N]\n"
                   "                   [--warmup=N] [--trace-export=PATH] [--json[=PATH]]\n");
      return 2;
    }
  }

  std::vector<const CorpusApp*> apps;
  for (const CorpusApp& app : Corpus()) {
    if (app.bucket == CorpusBucket::kTurnstileOnly || app.bucket == CorpusBucket::kBothFind) {
      apps.push_back(&app);
    }
  }
  if (apps.empty()) {
    std::fprintf(stderr, "FATAL: no managed corpus apps\n");
    return 1;
  }

  FleetRuntime::Options options;
  options.shards = shards;
  if (!trace_export.empty()) {
    options.event_capacity = 1u << 15;
  }
  FleetRuntime fleet(options);

  std::vector<std::string> ids;
  std::vector<int> quotas;
  uint64_t planned = 0;
  ids.reserve(static_cast<size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    ids.push_back(fleet.AddApp(*apps[static_cast<size_t>(i) % apps.size()]));
    quotas.push_back(ClassMessages(static_cast<size_t>(i), base_messages));
    planned += static_cast<uint64_t>(quotas.back());
  }
  if (!trace_export.empty() && ids.size() >= 2) {
    // One cross-instance wire so the exported trace contains wire hops; with
    // >= 2 instances on >= 2 shards the hop crosses a shard boundary.
    Status wired = fleet.Wire(ids[0], ids[1]);
    if (!wired.ok()) {
      std::fprintf(stderr, "bench_fleet: wire for --trace-export: %s\n",
                   wired.ToString().c_str());
    }
  }

  std::printf("Fleet: %d instances x ~%d messages (mixed 0.5x/1x/2x rates, %llu total) "
              "on %d shards, kSelective\n",
              instances, base_messages, static_cast<unsigned long long>(planned),
              fleet.shard_count());

  Stopwatch setup;
  Status started = fleet.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "FATAL: fleet setup failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("setup (parse+analyze+instrument+compile, parallel per shard): %.2f s\n",
              setup.ElapsedSeconds());

  if (obs::TelemetryServer::Global().running()) {
    fleet.AttachTelemetry(&obs::TelemetryServer::Global());
    std::printf("telemetry: fleet health attached at 127.0.0.1:%d (/metrics, /healthz)\n",
                obs::TelemetryServer::Global().port());
  }

  // Warm-up outside the timed/recorded window: caches, compiled chunks.
  for (int seq = 0; seq < warmup; ++seq) {
    for (const std::string& id : ids) {
      fleet.Post(id, seq, /*record=*/false);
    }
  }
  fleet.Drain();

  // Timed window: round-robin across tenants so arrivals interleave; a
  // tenant drops out of a round once its rate-class quota is spent. Posts
  // block under mailbox backpressure, so the wall clock covers exactly the
  // fleet's sustainable ingest rate.
  Stopwatch wall;
  int max_quota = base_messages * 2;
  for (int seq = 0; seq < max_quota; ++seq) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (seq < quotas[i]) {
        fleet.Post(ids[i], warmup + seq);
      }
    }
  }
  fleet.Drain();
  const double wall_seconds = wall.ElapsedSeconds();

  // Quiescent: assemble + export the fleet trace before Stop tears anything
  // down (and publish to the live server if one is up).
  if (!trace_export.empty()) {
    obs::FleetTraceAssembler assembled = fleet.AssembleTrace();
    std::string json = assembled.ChromeTraceJson().Dump(/*pretty=*/false) + "\n";
    std::FILE* file = std::fopen(trace_export.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench_fleet: cannot open '%s' for writing\n", trace_export.c_str());
    } else {
      std::fwrite(json.data(), 1, json.size(), file);
      std::fclose(file);
      std::printf("fleet trace: %zu fleet traces, %llu wire hops -> %s\n",
                  assembled.fleet_trace_count(),
                  static_cast<unsigned long long>(assembled.wire_hops()),
                  trace_export.c_str());
    }
    if (obs::TelemetryServer::Global().running()) {
      fleet.PublishTraces(&obs::TelemetryServer::Global());
    }
  }
  fleet.Stop();

  std::vector<std::string> errors = fleet.errors();
  if (!errors.empty()) {
    std::fprintf(stderr, "FATAL: %zu instance errors, first: %s\n", errors.size(),
                 errors.front().c_str());
    return 1;
  }

  obs::Metrics& global = obs::Metrics::Global();
  std::printf("\n%-6s %10s | %10s %10s %10s | %10s %10s | %12s\n", "shard", "instances",
              "p50 (us)", "p90 (us)", "p99 (us)", "q50 (us)", "q99 (us)", "messages");
  std::printf("------------------+----------------------------------+-----------------------+"
              "-------------\n");
  for (int s = 0; s < fleet.shard_count(); ++s) {
    obs::Histogram shard_hist(obs::Histogram::DefaultLatencyBounds());
    fleet.MergeShardLatency(s, &shard_hist);
    const obs::Histogram& queue_hist = fleet.shard(s).queue_latency();
    std::printf("%-6d %10zu | %10.2f %10.2f %10.2f | %10.2f %10.2f | %12llu\n", s,
                fleet.shard(s).instance_count(), shard_hist.Quantile(0.50) * 1e6,
                shard_hist.Quantile(0.90) * 1e6, shard_hist.Quantile(0.99) * 1e6,
                queue_hist.Quantile(0.50) * 1e6, queue_hist.Quantile(0.99) * 1e6,
                static_cast<unsigned long long>(shard_hist.count()));
    // MetricWithLabel with an empty family yields just the label block, so
    // the published keys read fleet.proc_p99_seconds{shard="0"} etc.
    const std::string scope = obs::MetricWithLabel("", "shard", std::to_string(s));
    PublishQuantiles(global, shard_hist, scope);
    global.GetFloatGauge("fleet.queue_p50_seconds" + scope)->Set(queue_hist.Quantile(0.50));
    global.GetFloatGauge("fleet.queue_p99_seconds" + scope)->Set(queue_hist.Quantile(0.99));
  }

  obs::Histogram fleet_hist(obs::Histogram::DefaultLatencyBounds());
  uint64_t recorded = fleet.MergeFleetLatency(&fleet_hist);
  const uint64_t processed = fleet.messages_processed();
  const double throughput = wall_seconds > 0 ? recorded / wall_seconds : 0.0;

  // The queue-wait vs processing split (satellite of ISSUE 10): merge the
  // shard-level mailbox histograms into global registry entries so the
  // --json snapshot carries full bucket data for both sides of the split.
  obs::Histogram* queue_global = global.GetHistogram("fleet.queue_seconds");
  obs::Histogram* wait_global = global.GetHistogram("fleet.enqueue_wait_seconds");
  const uint64_t queued = fleet.MergeQueueLatency(queue_global);
  const uint64_t stalls = fleet.MergeEnqueueWait(wait_global);

  global.GetGauge("fleet.instances")->Set(instances);
  global.GetGauge("fleet.shards")->Set(fleet.shard_count());
  global.GetGauge("fleet.messages_total")->Set(static_cast<int64_t>(recorded));
  global.GetFloatGauge("fleet.wall_seconds")->Set(wall_seconds);
  global.GetFloatGauge("fleet.throughput_msgs_per_s")->Set(throughput);
  PublishQuantiles(global, fleet_hist, "");
  global.GetFloatGauge("fleet.queue_p50_seconds")->Set(queue_global->Quantile(0.50));
  global.GetFloatGauge("fleet.queue_p90_seconds")->Set(queue_global->Quantile(0.90));
  global.GetFloatGauge("fleet.queue_p99_seconds")->Set(queue_global->Quantile(0.99));
  global.GetFloatGauge("fleet.enqueue_wait_p99_seconds")->Set(wait_global->Quantile(0.99));
  global.GetGauge("fleet.enqueue_stalls")->Set(static_cast<int64_t>(stalls));

  std::printf("\n%llu recorded messages (%llu processed incl. warm-up) over %.3f s wall "
              "-> %.0f msg/s aggregate\n",
              static_cast<unsigned long long>(recorded),
              static_cast<unsigned long long>(processed), wall_seconds, throughput);
  std::printf("processing: p50 %.2f us, p90 %.2f us, p99 %.2f us\n",
              fleet_hist.Quantile(0.50) * 1e6, fleet_hist.Quantile(0.90) * 1e6,
              fleet_hist.Quantile(0.99) * 1e6);
  std::printf("queue wait: p50 %.2f us, p90 %.2f us, p99 %.2f us over %llu deliveries "
              "(%llu backpressure stalls, stall p99 %.2f us)\n",
              queue_global->Quantile(0.50) * 1e6, queue_global->Quantile(0.90) * 1e6,
              queue_global->Quantile(0.99) * 1e6, static_cast<unsigned long long>(queued),
              static_cast<unsigned long long>(stalls), wait_global->Quantile(0.99) * 1e6);
  return 0;
}

}  // namespace
}  // namespace turnstile

int main(int argc, char** argv) {
  int rc = turnstile::Main(argc, argv);
  turnstile::MaybeDumpMetricsSnapshot(argc, argv);
  return rc;
}
