// Label lifetime soak: labels live on the values they label, so a
// long-running instrumented tenant holds no more heap than the app itself
// keeps. Each app runs 2000 messages under kOriginal, kRoundTrip and
// kExhaustive with the io log cleared after every message (the log is the
// harness's record of sink writes, not tenant state). The in-use heap growth
// from message 200 to message 2000 of an instrumented version must stay
// within kOriginal's growth plus 64 bytes per message, and the message
// objects injected during warm-up must all have been reclaimed by the end.
// A ring-only event log holds a fixed number of events, so enabling it must
// add no more than 16 bytes per message on top of the obs-off growth.
#include <malloc.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/corpus/corpus.h"
#include "src/corpus/driver.h"
#include "src/flow/workload.h"
#include "src/runtime/context.h"
#include "src/support/json.h"
#include "src/support/rng.h"

namespace turnstile {
namespace {

constexpr int kWarmupMessages = 200;
constexpr int kMessages = 2000;
constexpr double kAllowanceBytesPerMessage = 64.0;
constexpr double kEventLogAllowanceBytesPerMessage = 16.0;

struct SoakResult {
  bool ok = false;
  double growth_per_message = 0.0;  // in-use heap bytes, message 200 -> 2000
  int live_warmup_messages = 0;     // warm-up message objects still alive
};

const char* VersionName(AppVersion version) {
  switch (version) {
    case AppVersion::kOriginal:
      return "original";
    case AppVersion::kSelective:
      return "selective";
    case AppVersion::kExhaustive:
      return "exhaustive";
    case AppVersion::kRoundTrip:
      return "roundtrip";
  }
  return "?";
}

// glibc's in-use heap bytes. Sanitizer runtimes replace malloc and read zero
// here, so under them only the liveness check has teeth.
double HeapInUse() { return static_cast<double>(mallinfo2().uordblks); }

// `event_capacity` > 0 runs with the context's event log enabled at that
// ring size.
SoakResult Soak(const CorpusApp& app, AppVersion version, size_t event_capacity = 0) {
  SoakResult result;
  auto context = RuntimeContext::CreateIsolated();
  if (event_capacity > 0) {
    context->event_log().Enable(event_capacity);
  }
  auto runtime = AppRuntime::Create(app, version, ExecTier::kBytecode, context.get());
  if (!runtime.ok()) {
    ADD_FAILURE() << app.name << ": " << runtime.status().ToString();
    return result;
  }
  auto message_template = Json::Parse(app.message_template);
  if (!message_template.ok()) {
    ADD_FAILURE() << app.name << ": " << message_template.status().ToString();
    return result;
  }
  Rng rng(7);
  // Weak references only to messages allocated before the baseline sample:
  // a weak_ptr keeps a make_shared block allocated, which must not count as
  // growth.
  std::vector<std::weak_ptr<Object>> warmup_messages;
  double baseline = 0.0;
  for (int seq = 0; seq < kMessages; ++seq) {
    if (seq == kWarmupMessages) {
      baseline = HeapInUse();
    }
    Value msg = GenerateMessage(*message_template, &rng, seq);
    if (seq < kWarmupMessages && msg.IsObject()) {
      warmup_messages.push_back(msg.AsObject());
    }
    Status status = (*runtime)->InjectValue(std::move(msg));
    if (!status.ok()) {
      ADD_FAILURE() << app.name << " message " << seq << ": " << status.ToString();
      return result;
    }
    (*runtime)->interp().io_world().records.clear();
  }
  result.growth_per_message = (HeapInUse() - baseline) / (kMessages - kWarmupMessages);
  for (const std::weak_ptr<Object>& message : warmup_messages) {
    result.live_warmup_messages += message.expired() ? 0 : 1;
  }
  std::printf("%-20s %-10s log %-5zu heap growth %8.1f B/msg, %d/%zu warm-up messages alive\n",
              app.name.c_str(), VersionName(version), event_capacity, result.growth_per_message,
              result.live_warmup_messages, warmup_messages.size());
  result.ok = true;
  return result;
}

// Runs `app` under all three versions and checks the instrumented ones
// against the un-instrumented baseline.
void ExpectBoundedLabelLifetime(const CorpusApp* app_or_null) {
  ASSERT_NE(app_or_null, nullptr);
  const CorpusApp& app = *app_or_null;
  SoakResult original = Soak(app, AppVersion::kOriginal);
  ASSERT_TRUE(original.ok);
  EXPECT_EQ(original.live_warmup_messages, 0) << app.name << " original";
  for (AppVersion version : {AppVersion::kRoundTrip, AppVersion::kExhaustive}) {
    const char* name = VersionName(version);
    SoakResult managed = Soak(app, version);
    ASSERT_TRUE(managed.ok) << name;
    EXPECT_LE(managed.growth_per_message,
              original.growth_per_message + kAllowanceBytesPerMessage)
        << app.name << " " << name << ": heap grows "
        << managed.growth_per_message << " B/msg against "
        << original.growth_per_message << " B/msg un-instrumented";
    EXPECT_EQ(managed.live_warmup_messages, 0) << app.name << " " << name;
  }
}

TEST(CorpusSoakTest, CameraMotionLabelsDieWithTheirMessages) {
  ExpectBoundedLabelLifetime(FindCorpusApp("camera-motion"));
}

TEST(CorpusSoakTest, ModbusLabelsDieWithTheirMessages) {
  ExpectBoundedLabelLifetime(FindCorpusApp("modbus"));
}

TEST(CorpusSoakTest, MappedArrayLabelsDieWithTheirMessages) {
  // camera-motion with an array field labelled element-wise by a $map
  // labeller: every element is boxed and the array carries their union.
  const CorpusApp* base = FindCorpusApp("camera-motion");
  ASSERT_NE(base, nullptr);
  CorpusApp app = *base;
  app.name = "camera-motion-tags";
  app.message_template = R"({ "payload": "$frame", "seq": "$seq",
                               "tags": ["$word", "$word", "$word"] })";
  app.policy_json = R"json({
    "labellers": {
      "inputLabel": {
        "payload": {
          "$fn": "p => (String(p).includes(\"employee\") ? \"Alpha\" : \"Beta\")" },
        "tags": { "$map": { "$fn": "t => (t.length > 5 ? \"Alpha\" : \"Beta\")" } }
      }
    },
    "rules": ["Alpha -> Beta", "Beta -> Gamma"],
    "injections": [{ "object": "msg", "labeller": "inputLabel" }]
  })json";
  ExpectBoundedLabelLifetime(&app);
}

TEST(CorpusSoakTest, CameraMotionEventLogAddsNoPerMessageGrowth) {
  // Once the 256-event ring has wrapped, recording replaces events in place:
  // nothing the log keeps may grow with the number of traced messages.
  const CorpusApp* app = FindCorpusApp("camera-motion");
  ASSERT_NE(app, nullptr);
  SoakResult off = Soak(*app, AppVersion::kRoundTrip);
  ASSERT_TRUE(off.ok);
  SoakResult on = Soak(*app, AppVersion::kRoundTrip, /*event_capacity=*/256);
  ASSERT_TRUE(on.ok);
  EXPECT_LE(on.growth_per_message, off.growth_per_message + kEventLogAllowanceBytesPerMessage)
      << "event log on: heap grows " << on.growth_per_message << " B/msg against "
      << off.growth_per_message << " B/msg with it off";
  EXPECT_EQ(on.live_warmup_messages, 0);
}

}  // namespace
}  // namespace turnstile
