#include "src/support/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/support/json_parser.h"

namespace turnstile {
namespace {

TEST(JsonTest, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
}

TEST(JsonTest, ScalarTypes) {
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json::Array().is_array());
  EXPECT_TRUE(Json::Object().is_object());
}

TEST(JsonTest, ObjectSetAndLookup) {
  Json obj = Json::Object();
  obj.Set("name", "turnstile");
  obj.Set("count", 61);
  EXPECT_EQ(obj.GetString("name"), "turnstile");
  EXPECT_EQ(obj.GetNumber("count"), 61);
  EXPECT_TRUE(obj["missing"].is_null());
  EXPECT_EQ(obj.GetString("missing", "fallback"), "fallback");
}

TEST(JsonTest, SetReplacesExistingKey) {
  Json obj = Json::Object();
  obj.Set("k", 1);
  obj.Set("k", 2);
  EXPECT_EQ(obj.GetNumber("k"), 2);
  EXPECT_EQ(obj.object_items().size(), 1u);
}

TEST(JsonTest, ChainedLookupOnNonObjectIsSafe) {
  Json j(42.0);
  EXPECT_TRUE(j["a"]["b"]["c"].is_null());
}

TEST(JsonTest, ArrayAppendAndIndex) {
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append("two");
  ASSERT_EQ(arr.array_items().size(), 2u);
  EXPECT_EQ(arr[0].number_value(), 1);
  EXPECT_EQ(arr[1].string_value(), "two");
  EXPECT_TRUE(arr[5].is_null());
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->bool_value(), true);
  EXPECT_EQ(Json::Parse("-2.5e2")->number_value(), -250.0);
  EXPECT_EQ(Json::Parse("\"a\\nb\"")->string_value(), "a\nb");
}

TEST(JsonParseTest, NumbersMatchStrtod) {
  for (const char* token : {"0", "-0", "+7", "007", "-42", "123456789012345", "-999999999999999",
                            "1234567890123456", "12345678901234567890", "1.5", "-2.5e2", "1e3",
                            "4.9e-324", "1e400"}) {
    Result<Json> parsed = Json::Parse(token);
    ASSERT_TRUE(parsed.ok()) << token;
    double expected = std::strtod(token, nullptr);
    EXPECT_EQ(parsed->number_value(), expected) << token;
    EXPECT_EQ(std::signbit(parsed->number_value()), std::signbit(expected)) << token;
  }
}

TEST(JsonParseTest, ParsesNestedDocument) {
  auto result = Json::Parse(R"({
    "rules": ["employee -> customer", "customer -> internal"],
    "nested": {"deep": [1, 2, {"x": true}]}
  })");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Json& doc = *result;
  EXPECT_EQ(doc["rules"][0].string_value(), "employee -> customer");
  EXPECT_TRUE(doc["nested"]["deep"][2]["x"].bool_value());
}

TEST(JsonParseTest, AcceptsCommentsAndTrailingCommas) {
  auto result = Json::Parse(R"({
    // the label hierarchy
    "rules": ["a -> b",],
  })");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)["rules"][0].string_value(), "a -> b");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const std::pair<const char*, const char*> kCases[] = {
      {"", "unexpected end of input at offset 0"},
      {"{", "expected object key at offset 1"},
      {"[1, 2", "unterminated array at offset 5"},
      {"\"unterminated", "unterminated string at offset 13"},
      {"{1: 2}", "expected object key at offset 1"},
      {"tru", "invalid literal at offset 0"},
      {"1 2", "trailing characters after JSON document at offset 2"},
      {"[1 2]", "expected ',' or ']' at offset 3"},
      {"{\"a\" 1}", "expected ':' at offset 5"},
      {"{\"a\":1 \"b\":2}", "expected ',' or '}' at offset 7"},
      {"\"\\q\"", "unknown escape at offset 3"},
      {"\"\\u12\"", "truncated \\u escape at offset 3"},
      {"\"\\uzzzz\"", "malformed \\u escape at offset 7"},
      {"\"abc\\", "unterminated escape at offset 5"},
      {"-", "malformed number '-' at offset 1"},
      {"+-5", "malformed number '+-5' at offset 3"},
      {"[,]", "expected a value at offset 1"},
      {"[1,,2]", "expected a value at offset 3"},
      {"{\"a\":}", "expected a value at offset 5"},
      {"{\"a\":1", "unterminated object at offset 6"},
      {"// only comment", "unexpected end of input at offset 15"},
      {"0x10", "trailing characters after JSON document at offset 1"},
  };
  for (const auto& [input, message] : kCases) {
    Result<Json> result = Json::Parse(input);
    ASSERT_FALSE(result.ok()) << input;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << input;
    EXPECT_EQ(result.status().message(), message) << input;
  }
}

TEST(JsonParseTest, ParsesUnicodeEscapes) {
  auto result = Json::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->string_value(), "A\xc3\xa9");
}

TEST(JsonParseTest, DuplicateKeyKeepsFirstPositionAndLastValue) {
  auto result = Json::Parse(R"({"a": 1, "b": 2, "a": 3, "c": {"x": 1, "x": [4]}, "b": 5})");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Dump(), R"({"a":3,"b":5,"c":{"x":[4]}})");
  // The same object built through Set, the other way fields are merged.
  Json built = Json::Object();
  built.Set("a", 1);
  built.Set("b", 2);
  built.Set("a", 3);
  Json inner = Json::Object();
  inner.Set("x", 1);
  Json four = Json::Array();
  four.Append(4);
  inner.Set("x", std::move(four));
  built.Set("c", std::move(inner));
  built.Set("b", 5);
  EXPECT_EQ(*result, built);
}

TEST(JsonParseTest, WideObjectRoundTrips) {
  std::string text = "{";
  for (int i = 0; i < 10000; ++i) {
    text += (i == 0 ? "" : ",");
    text += "\"k" + std::to_string(i) + "\":";
    text += (i % 3 == 0) ? std::to_string(i % 97) : JsonQuote("v\t" + std::to_string(i));
  }
  text += "}";
  auto result = Json::Parse(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->object_items().size(), 10000u);
  EXPECT_EQ(result->Dump(), text);
}

TEST(JsonParseTest, NestingIsCappedWithAParseError) {
  auto nested = [](int depth, const char* open, const char* close) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += open;
    }
    text += "1";
    for (int i = 0; i < depth; ++i) {
      text += close;
    }
    return text;
  };
  EXPECT_TRUE(Json::Parse(nested(kMaxJsonNesting, "[", "]")).ok());
  EXPECT_TRUE(Json::Parse(nested(kMaxJsonNesting, "{\"a\":", "}")).ok());

  Result<Json> arrays = Json::Parse(nested(kMaxJsonNesting + 1, "[", "]"));
  ASSERT_FALSE(arrays.ok());
  EXPECT_EQ(arrays.status().message(), "nesting deeper than 512 levels at offset 512");
  Result<Json> objects = Json::Parse(nested(kMaxJsonNesting + 1, "{\"a\":", "}"));
  ASSERT_FALSE(objects.ok());
  EXPECT_EQ(objects.status().message(), "nesting deeper than 512 levels at offset 2560");
  // Far past the cap: an error, not a stack overflow.
  EXPECT_FALSE(Json::Parse(std::string(1000000, '[')).ok());
}

TEST(JsonDumpTest, CompactRoundTrip) {
  Json obj = Json::Object();
  obj.Set("a", 1);
  Json arr = Json::Array();
  arr.Append("x\"y");
  arr.Append(Json(nullptr));
  obj.Set("list", std::move(arr));
  std::string dumped = obj.Dump();
  EXPECT_EQ(dumped, R"({"a":1,"list":["x\"y",null]})");
  auto reparsed = Json::Parse(dumped);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, obj);
}

TEST(JsonDumpTest, PrettyPrintIsReparsable) {
  auto doc = Json::Parse(R"({"a": [1, {"b": "c"}], "d": null})");
  ASSERT_TRUE(doc.ok());
  std::string pretty = doc->Dump(/*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto again = Json::Parse(pretty);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *doc);
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  Json j(std::string("a\x01z"));
  EXPECT_EQ(j.Dump(), "\"a\\u0001z\"");
}

}  // namespace
}  // namespace turnstile
