// Strict environment-variable parsing (src/support/env.h): the whole-string
// integer contract behind TURNSTILE_BENCH_MESSAGES and the numeric forms of
// TURNSTILE_AUDIT and TURNSTILE_TELEMETRY. Malformed values never
// half-parse — they keep the default and warn once per variable.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/support/env.h"

namespace turnstile {
namespace {

constexpr const char* kVar = "TURNSTILE_SUPPORT_ENV_TEST_VAR";

class EnvIntTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetEnvWarningsForTest();
    unsetenv(kVar);
  }
  void TearDown() override { unsetenv(kVar); }
};

TEST_F(EnvIntTest, UnsetReturnsFallback) {
  EXPECT_EQ(EnvInt(kVar, 7, 1, 100), 7);
}

TEST_F(EnvIntTest, WholeStringIntegerParses) {
  setenv(kVar, "42", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 1, 100), 42);
  setenv(kVar, "1", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 1, 100), 1);
  setenv(kVar, "100", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 1, 100), 100);
}

TEST_F(EnvIntTest, TrailingGarbageKeepsDefault) {
  // "12abc" must NOT parse as 12 — the silent-atoi failure mode this
  // contract exists to kill.
  for (const char* bad : {"12abc", "4 ", " 4", "0x10", "4.5", ""}) {
    setenv(kVar, bad, 1);
    EXPECT_EQ(EnvInt(kVar, 7, 1, 100), 7) << "value: '" << bad << "'";
  }
}

TEST_F(EnvIntTest, OutOfRangeKeepsDefault) {
  for (const char* bad : {"-3", "0", "101", "99999999999999999999"}) {
    setenv(kVar, bad, 1);
    EXPECT_EQ(EnvInt(kVar, 7, 1, 100), 7) << "value: '" << bad << "'";
  }
}

TEST_F(EnvIntTest, NegativeBoundsWorkWhenAllowed) {
  setenv(kVar, "-3", 1);
  EXPECT_EQ(EnvInt(kVar, 0, -10, 10), -3);
}

}  // namespace
}  // namespace turnstile
