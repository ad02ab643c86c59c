// Minimal self-contained JSON document model, parser and serializer.
//
// Used for IFC policy files, corpus metadata and bench output. Objects keep
// insertion order (useful for stable, diffable serialization).
#ifndef TURNSTILE_SRC_SUPPORT_JSON_H_
#define TURNSTILE_SRC_SUPPORT_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/support/status.h"

namespace turnstile {

class Json;

using JsonArray = std::vector<Json>;
// Ordered list of key/value pairs; keys are unique. A repeated key keeps its
// first position and takes the last value (Set and Parse agree on this).
using JsonObject = std::vector<std::pair<std::string, Json>>;

// A JSON document node. Value semantics; cheap to move.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : data_(nullptr) {}
  Json(std::nullptr_t) : data_(nullptr) {}
  Json(bool value) : data_(value) {}
  Json(double value) : data_(value) {}
  Json(int value) : data_(static_cast<double>(value)) {}
  Json(int64_t value) : data_(static_cast<double>(value)) {}
  Json(size_t value) : data_(static_cast<double>(value)) {}
  Json(const char* value) : data_(std::string(value)) {}
  Json(std::string value) : data_(std::move(value)) {}
  Json(JsonArray value) : data_(std::move(value)) {}
  Json(JsonObject value) : data_(std::move(value)) {}

  static Json Array() { return Json(JsonArray{}); }
  static Json Object() { return Json(JsonObject{}); }

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; asserted in debug builds, undefined on type mismatch.
  bool bool_value() const { return std::get<bool>(data_); }
  double number_value() const { return std::get<double>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }
  const JsonArray& array_items() const { return std::get<JsonArray>(data_); }
  JsonArray& array_items() { return std::get<JsonArray>(data_); }
  const JsonObject& object_items() const { return std::get<JsonObject>(data_); }
  JsonObject& object_items() { return std::get<JsonObject>(data_); }

  // Object field lookup; returns a shared null instance when missing or when
  // this node is not an object, so lookups chain safely.
  const Json& operator[](std::string_view key) const;
  // Array index; shared null when out of range.
  const Json& operator[](size_t index) const;

  bool Has(std::string_view key) const;

  // Sets (or replaces) an object field. Converts a null node to an object.
  void Set(std::string key, Json value);
  // Appends to an array. Converts a null node to an array.
  void Append(Json value);

  // Convenience typed getters with fallbacks.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  double GetNumber(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  // Serializes compactly ({"a":1}) or with 2-space indentation.
  std::string Dump(bool pretty = false) const;

  // Parses a JSON document. Accepts // line comments (policies are written by
  // hand) and trailing commas; nesting deeper than kMaxJsonNesting is a
  // ParseError. Linear in the input size (see src/support/json_parser.h).
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const { return data_ == other.data_; }

 private:
  void DumpTo(std::string* out, bool pretty, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> data_;
};

// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string JsonQuote(std::string_view text);

}  // namespace turnstile

#endif  // TURNSTILE_SRC_SUPPORT_JSON_H_
