// TURNSTILE_EXEC_TIER parsing: the accepted spellings select their tier, and
// an unrecognized value keeps the fused-bytecode default while logging one
// loud warning naming the accepted values (a silent fall-through here once
// made `TURNSTILE_EXEC_TIER=tree-walk` benchmark the wrong tier). The
// tree-walking oracle is not selectable from the environment: only
// Interpreter::set_exec_tier reaches it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "src/interp/interp.h"

namespace turnstile {
namespace {

// The CI lowered-tier job exports TURNSTILE_EXEC_TIER for the whole suite, so
// every test here restores whatever value the process started with.
class ScopedExecTierEnv {
 public:
  explicit ScopedExecTierEnv(const char* value) {
    const char* prior = std::getenv("TURNSTILE_EXEC_TIER");
    had_prior_ = prior != nullptr;
    if (had_prior_) {
      prior_ = prior;
    }
    if (value != nullptr) {
      ::setenv("TURNSTILE_EXEC_TIER", value, 1);
    } else {
      ::unsetenv("TURNSTILE_EXEC_TIER");
    }
  }
  ~ScopedExecTierEnv() {
    if (had_prior_) {
      ::setenv("TURNSTILE_EXEC_TIER", prior_.c_str(), 1);
    } else {
      ::unsetenv("TURNSTILE_EXEC_TIER");
    }
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

TEST(ExecTierFromNameTest, AcceptedSpellings) {
  EXPECT_EQ(ExecTierFromName("bytecode"), ExecTier::kBytecode);
  EXPECT_EQ(ExecTierFromName("bytecode-lowered"), ExecTier::kBytecodeLowered);
}

TEST(ExecTierFromNameTest, RejectsNearMisses) {
  EXPECT_EQ(ExecTierFromName("treewalk"), std::nullopt);
  EXPECT_EQ(ExecTierFromName("tree-walk"), std::nullopt);
  EXPECT_EQ(ExecTierFromName("Bytecode"), std::nullopt);
  EXPECT_EQ(ExecTierFromName("vm"), std::nullopt);
  EXPECT_EQ(ExecTierFromName(""), std::nullopt);
}

TEST(ExecTierEnvTest, ValidValuesSelectTheTier) {
  {
    ScopedExecTierEnv env("bytecode-lowered");
    Interpreter interp;
    EXPECT_EQ(interp.exec_tier(), ExecTier::kBytecodeLowered);
  }
  {
    ScopedExecTierEnv env("bytecode");
    Interpreter interp;
    EXPECT_EQ(interp.exec_tier(), ExecTier::kBytecode);
  }
  {
    ScopedExecTierEnv env(nullptr);
    Interpreter interp;
    EXPECT_EQ(interp.exec_tier(), ExecTier::kBytecode);
  }
}

TEST(ExecTierEnvTest, UnrecognizedValueWarnsOnceAndKeepsDefault) {
  ScopedExecTierEnv env("treewalk");
  ResetExecTierWarningForTest();

  testing::internal::CaptureStderr();
  Interpreter interp;
  std::string warning = testing::internal::GetCapturedStderr();

  EXPECT_EQ(interp.exec_tier(), ExecTier::kBytecode);
  EXPECT_NE(warning.find("TURNSTILE_EXEC_TIER"), std::string::npos) << warning;
  EXPECT_NE(warning.find("\"treewalk\""), std::string::npos) << warning;
  EXPECT_NE(warning.find("\"bytecode\""), std::string::npos) << warning;
  EXPECT_NE(warning.find("\"bytecode-lowered\""), std::string::npos) << warning;

  // The warning is a process-wide one-shot: apps construct interpreters in
  // loops, and one line is a signal while a thousand is log spam.
  testing::internal::CaptureStderr();
  Interpreter again;
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(again.exec_tier(), ExecTier::kBytecode);
}

}  // namespace
}  // namespace turnstile
