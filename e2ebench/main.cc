// The Turnstile end-to-end benchmark program; run.py builds it and runs it.
//
//   e2e_bench --workload stream|chatter|deploy --seed N --seconds S --trace 0|1
//             [--revision REV]
//
// Prints the build, the machine and the TURNSTILE_* environment, one line per
// measured quantity, and as its last line a JSON object {"correct",
// "attempted", "failed", "metrics"}: every end-to-end metric with --trace 0,
// every per-layer metric with --trace 1 (0 where the workload bypasses the
// layer). Exits 1 when an operation or an output check failed, and 2 on bad
// arguments or when a TURNSTILE_* variable that changes the timed program is
// set.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "e2ebench/bench.h"

extern char** environ;

namespace turnstile::e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Both lists match BENCHMARK.json; METRICS.md defines each metric.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"throughput_msgs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"runtime.queue_wait_p50_ms", "ms"},
    {"runtime.queue_wait_p99_ms", "ms"},
    {"runtime.service_p50_ms", "ms"},
    {"runtime.mailbox_depth_max", "count"},
    {"runtime.post_stall_ms", "ms"},
    {"runtime.wire_serialize_us", "us"},
    {"runtime.wire_materialize_us", "us"},
    {"runtime.wire_hops", "count"},
    {"flow.generate_us", "us"},
    {"flow.messages_routed", "count"},
    {"corpus.inject_us", "us"},
    {"interp.json_parse_ms", "ms"},
    {"interp.builtins_ms", "ms"},
    {"vm.app_ms", "ms"},
    {"vm.ops_executed", "count"},
    {"dift.monitor_ms", "ms"},
    {"dift.monitor_share", "ratio"},
    {"dift.label_calls", "count"},
    {"dift.binary_ops", "count"},
    {"dift.checks", "count"},
    {"dift.invokes", "count"},
    {"dift.boxes_created", "count"},
    {"dift.overhead_ratio", "ratio"},
    {"lang.parse_ms", "ms"},
    {"lang.pkg_parse_ms", "ms"},
    {"lang.resolve_ms", "ms"},
    {"lang.print_ms", "ms"},
    {"ifc.policy_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"analysis.graph_nodes", "count"},
    {"analysis.pkg_analyze_ms", "ms"},
    {"analysis.pkg_graph_nodes", "count"},
    {"analysis.pkg_fixpoint_rounds", "count"},
    {"instrument.instrument_ms", "ms"},
    {"instrument.calls_injected", "count"},
    {"vm.chunks_compiled", "count"},
    {"corpus.load_ms", "ms"},
    {"trace.unaccounted_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.latency_samples", "count"},
};

// Variables that change the timed program (tier, obs sinks, shard count,
// bench knobs): the benchmark refuses to run under them.
bool IsRefused(const std::string& name) {
  static constexpr const char* kRefused[] = {
      "TURNSTILE_EXEC_TIER", "TURNSTILE_PROFILE",   "TURNSTILE_TRACE",
      "TURNSTILE_AUDIT",     "TURNSTILE_TELEMETRY", "TURNSTILE_FLEET_SHARDS"};
  if (name.rfind("TURNSTILE_BENCH_", 0) == 0) {
    return true;
  }
  for (const char* refused : kRefused) {
    if (name == refused) {
      return true;
    }
  }
  return false;
}

// False when a refused variable is set; `recorded` collects the other
// TURNSTILE_* variables for the header.
bool CheckEnvironment(std::string* recorded) {
  bool ok = true;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string variable = *entry;
    if (variable.rfind("TURNSTILE_", 0) != 0) {
      continue;
    }
    const std::string name = variable.substr(0, variable.find('='));
    if (IsRefused(name)) {
      std::fprintf(stderr, "e2e_bench: %s is set and changes the timed program; unset it\n",
                   name.c_str());
      ok = false;
    } else {
      *recorded += " " + variable;
    }
  }
  return ok;
}

bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* revision) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "e2e_bench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "stream" && value != "chatter" && value != "deploy") {
        std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n", value.c_str());
        return false;
      }
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        std::fprintf(stderr, "e2e_bench: bad --seed '%s'\n", value.c_str());
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config->seconds >= 1.0 && config->seconds <= 600.0)) {
        std::fprintf(stderr, "e2e_bench: --seconds must be in [1, 600], got '%s'\n",
                     value.c_str());
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "e2e_bench: --trace must be 0 or 1\n");
        return false;
      }
      config->trace = value == "1";
      have_trace = true;
    } else if (flag == "--revision") {
      *revision = value;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument '%s'\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr, "e2e_bench: --workload, --seed, --seconds and --trace are required\n");
    return false;
  }
  return true;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown compiler";
#endif
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string revision = "unknown";
  if (!ParseArgs(argc, argv, &config, &revision)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload stream|chatter|deploy --seed N --seconds S "
                 "--trace 0|1 [--revision REV]\n");
    return 2;
  }
  std::string environment;
  if (!CheckEnvironment(&environment)) {
    return 2;
  }
  std::printf("e2e_bench: workload=%s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  std::printf("build: %s, %s, revision %s\n", E2E_BUILD_TYPE, Compiler(), revision.c_str());
  std::printf("machine: nproc=%u; pinned: tier=bytecode shards=%d mailbox=%zu\n",
              std::thread::hardware_concurrency(), kShards, kMailboxCapacity);
  std::printf("env:%s\n", environment.empty() ? " no TURNSTILE_* variables" : environment.c_str());

  Report report;
  if (config.workload == "stream") {
    RunStream(config, &report);
  } else if (config.workload == "chatter") {
    RunChatter(config, &report);
  } else {
    RunDeploy(config, &report);
  }
  report.Set("peak_rss_mb", PeakRssMb());

  const MetricSpec* specs = config.trace ? kPerLayer : kEndToEnd;
  const size_t count = config.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics;
  for (size_t i = 0; i < count; ++i) {
    auto it = report.values.find(specs[i].name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (!config.trace && it == report.values.end()) {
      report.Check(false, std::string("end-to-end metric not measured: ") + specs[i].name);
    }
    if (!std::isfinite(value)) {
      report.Check(false, std::string("metric is not finite: ") + specs[i].name);
      value = 0.0;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    metrics += entry;
  }
  std::printf("failed_ratio: %.6g (%llu of %llu operations failed)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(report.attempted, 1)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace turnstile::e2e

int main(int argc, char** argv) { return turnstile::e2e::Main(argc, argv); }
