#include "src/support/strings.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/support/rng.h"

namespace turnstile {
namespace {

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitTrimmedDropsEmptiesAndTrims) {
  auto parts = StrSplitTrimmed("  a ; b ;; ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  hi \t\n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("turnstile", "turn"));
  EXPECT_FALSE(StartsWith("turn", "turnstile"));
  EXPECT_TRUE(EndsWith("policy.json", ".json"));
  EXPECT_TRUE(Contains("RED.nodes.createNode", "createNode"));
  EXPECT_FALSE(Contains("abc", "z"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(StrReplaceAll("a.b.c", ".", "->"), "a->b->c");
  EXPECT_EQ(StrReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(StrReplaceAll("abc", "", "x"), "abc");
}

TEST(StringsTest, NumberToStringMatchesJsStyle) {
  EXPECT_EQ(NumberToString(42), "42");
  EXPECT_EQ(NumberToString(-7), "-7");
  EXPECT_EQ(NumberToString(2.5), "2.5");
  EXPECT_EQ(NumberToString(0), "0");
  EXPECT_EQ(NumberToString(1.0 / 0.0), "Infinity");
  EXPECT_EQ(NumberToString(-1.0 / 0.0), "-Infinity");
  EXPECT_EQ(NumberToString(0.0 / 0.0), "NaN");
}

// Today's outputs at the edges of the integer path and just past them. These
// are the "%.0f"/"%.12g" renderings, not JavaScript's: a change to
// JS-compatible number formatting changes this table on purpose.
TEST(StringsTest, NumberToStringEdgeCasesArePinned) {
  EXPECT_EQ(NumberToString(-0.0), "-0");
  EXPECT_EQ(NumberToString(999999999999999.0), "999999999999999");
  EXPECT_EQ(NumberToString(-999999999999999.0), "-999999999999999");
  EXPECT_EQ(NumberToString(1e15), "1e+15");
  EXPECT_EQ(NumberToString(9007199254740992.0), "9.00719925474e+15");  // 2^53
  EXPECT_EQ(NumberToString(0.1 + 0.2), "0.3");
  EXPECT_EQ(NumberToString(4294967296.0), "4294967296");
  EXPECT_EQ(NumberToString(-5e-7), "-5e-07");
}

// The integer path must print exactly what "%.0f" prints for every integral
// value it accepts.
TEST(StringsTest, NumberToStringIntegersMatchPrintf) {
  Rng rng(7);
  std::vector<double> values = {1, -1, 9, 10, -10, 99, 100, 1e14, -1e14, 123456789012345.0};
  for (int bits = 0; bits < 50; ++bits) {
    double p = std::ldexp(1.0, bits);
    values.insert(values.end(), {p, -p, p - 1, -(p - 1), p + 1});
  }
  for (int i = 0; i < 2000; ++i) {
    double magnitude = std::ldexp(1.0, static_cast<int>(rng.NextBelow(50)));
    values.push_back(std::floor(magnitude * rng.NextDouble()) * (i % 2 == 0 ? 1 : -1));
  }
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    EXPECT_EQ(NumberToString(v), buf) << v;
  }
}

TEST(StringsTest, Repeat) {
  EXPECT_EQ(StrRepeat("ab", 3), "ababab");
  EXPECT_EQ(StrRepeat("x", 0), "");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, WordHasRequestedLength) {
  Rng rng(9);
  EXPECT_EQ(rng.NextWord(8).size(), 8u);
}

}  // namespace
}  // namespace turnstile
