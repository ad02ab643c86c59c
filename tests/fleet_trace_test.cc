// Fleet-wide distributed tracing (ISSUE 10's tentpole): a wired two-app pair
// on different shards must assemble into ONE fleet trace whose hops span both
// shards and chain through the wire (hop 1's parent_span names hop 0's local
// trace), and the live telemetry plane must answer /metrics + /healthz while
// shards are actively processing. Runs under the TSAN CI job.
#include "src/obs/fleet_trace.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/obs/telemetry.h"
#include "src/runtime/context.h"
#include "src/runtime/fleet.h"
#include "src/runtime/shard.h"

namespace turnstile {
namespace {

constexpr int kMessages = 4;
constexpr uint64_t kSeed = 977u;

// Minimal HTTP/1.0 GET (the server closes after one response).
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::vector<const CorpusApp*> ManagedApps() {
  std::vector<const CorpusApp*> picked;
  for (const CorpusApp& app : Corpus()) {
    if (app.bucket == CorpusBucket::kTurnstileOnly || app.bucket == CorpusBucket::kBothFind) {
      picked.push_back(&app);
    }
  }
  return picked;
}

// (A, B) where A emits terminal sends when driven and B accepts injection —
// the same probe fleet_runtime_test uses for its wire differential.
std::pair<const CorpusApp*, const CorpusApp*> PickWiredPair() {
  std::vector<const CorpusApp*> apps = ManagedApps();
  const CorpusApp* source = nullptr;
  for (const CorpusApp* app : apps) {
    auto context = RuntimeContext::CreateIsolated();
    auto runtime = AppRuntime::Create(*app, AppVersion::kSelective,
                                      ExecTier::kBytecode, context.get());
    if (!runtime.ok()) {
      continue;
    }
    int sends = 0;
    (*runtime)->engine().set_terminal_sink(
        [&sends](const std::string&, const Value&, uint64_t) { ++sends; });
    Rng rng(kSeed);
    bool ok = true;
    for (int seq = 0; seq < kMessages && ok; ++seq) {
      ok = (*runtime)->DriveMessage(&rng, seq).ok();
    }
    if (ok && sends > 0) {
      source = app;
      break;
    }
  }
  const CorpusApp* destination = nullptr;
  for (const CorpusApp* app : apps) {
    if (app != source && !app->entry_kind.empty()) {
      destination = app;
      break;
    }
  }
  return {source, destination};
}

TEST(FleetTraceTest, WiredPairAssemblesCrossShardTrace) {
  auto [source, destination] = PickWiredPair();
  ASSERT_NE(source, nullptr) << "no managed app produces terminal sends";
  ASSERT_NE(destination, nullptr);

  FleetRuntime::Options options;
  options.shards = 2;
  options.rng_seed = kSeed;
  options.event_capacity = 1u << 16;  // turns on per-context event logs + fleet ids
  FleetRuntime fleet(options);
  std::string a = fleet.AddApp(*source, /*shard=*/0);
  std::string b = fleet.AddApp(*destination, /*shard=*/1);
  ASSERT_TRUE(fleet.Wire(a, b).ok());
  ASSERT_TRUE(fleet.Start().ok());
  for (int seq = 0; seq < kMessages; ++seq) {
    ASSERT_TRUE(fleet.Post(a, seq));
  }
  fleet.Drain();
  fleet.Stop();  // joins shard threads: event logs are quiescent
  EXPECT_EQ(fleet.errors(), std::vector<std::string>{});

  obs::FleetTraceAssembler assembled = fleet.AssembleTrace();
  EXPECT_EQ(assembled.context_count(), 2u);
  // One fleet trace per posted message, each with at least one wire crossing
  // overall (A fans every terminal send into B).
  EXPECT_EQ(assembled.fleet_trace_count(), static_cast<size_t>(kMessages));
  EXPECT_GE(assembled.wire_hops(), 1u);

  // Find a fleet trace that crossed the wire and check the stitched chain.
  bool found_crossing = false;
  for (uint64_t id : assembled.FleetTraceIds()) {
    std::vector<obs::FleetTraceAssembler::Hop> hops = assembled.HopsOf(id);
    if (hops.size() < 2) {
      continue;
    }
    found_crossing = true;
    // Hop 0: the injection on A's shard, with recorded spans.
    EXPECT_EQ(hops[0].hop, 0u);
    EXPECT_EQ(hops[0].shard, 0);
    EXPECT_EQ(hops[0].source, a);
    EXPECT_EQ(hops[0].parent_span, 0u);
    EXPECT_FALSE(hops[0].events.empty());
    // Hop 1: the continuation on B's shard, chained through the wire: its
    // parent_span is A's local trace id for hop 0.
    EXPECT_EQ(hops[1].hop, 1u);
    EXPECT_EQ(hops[1].shard, 1);
    EXPECT_EQ(hops[1].source, b);
    EXPECT_EQ(hops[1].parent_span, hops[0].local_trace_id);
    EXPECT_FALSE(hops[1].events.empty());
    break;
  }
  EXPECT_TRUE(found_crossing) << "no assembled fleet trace spans both shards";

  // The Chrome export reflects the same story: a lane per shard and at least
  // one flow arrow ("s" start + "f" finish) across the wire.
  Json chrome = assembled.ChromeTraceJson();
  std::string rendered = chrome.Dump(false);
  EXPECT_NE(rendered.find("\"name\":\"shard0\""), std::string::npos);
  EXPECT_NE(rendered.find("\"name\":\"shard1\""), std::string::npos);
  EXPECT_NE(rendered.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(rendered.find("\"ph\":\"f\""), std::string::npos);
}

TEST(FleetTraceTest, TelemetryServesWhileShardsProcess) {
  std::vector<const CorpusApp*> apps = ManagedApps();
  ASSERT_GE(apps.size(), 3u);
  apps.resize(3);

  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());

  FleetRuntime::Options options;
  options.shards = 3;
  options.rng_seed = kSeed;
  options.event_capacity = 1u << 16;
  FleetRuntime fleet(options);
  std::vector<std::string> ids;
  for (const CorpusApp* app : apps) {
    ids.push_back(fleet.AddApp(*app));
  }
  ASSERT_TRUE(fleet.Start().ok());
  fleet.AttachTelemetry(&server);

  // A posting thread keeps all three shards busy while this thread scrapes.
  std::thread poster([&] {
    for (int seq = 0; seq < 40; ++seq) {
      for (const std::string& id : ids) {
        fleet.Post(id, seq);
      }
    }
  });
  bool saw_depth = false;
  bool saw_queue = false;
  bool saw_healthy = false;
  for (int i = 0; i < 50; ++i) {
    std::string metrics = HttpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    saw_depth = saw_depth || metrics.find("shard_mailbox_depth") != std::string::npos;
    saw_queue = saw_queue || metrics.find("fleet_queue_seconds") != std::string::npos;
    std::string health = HttpGet(server.port(), "/healthz");
    saw_healthy = saw_healthy || (health.find("200 OK") != std::string::npos &&
                                  health.find("\"ok\":true") != std::string::npos);
  }
  poster.join();
  fleet.Drain();
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_healthy);

  // Stop() detaches the fleet's providers (blocking on any in-flight scrape)
  // before joining shards, so a post-Stop scrape serves the defaults.
  fleet.Stop();
  EXPECT_EQ(fleet.errors(), std::vector<std::string>{});
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200 OK"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace turnstile
