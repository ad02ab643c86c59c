#include "src/support/json.h"

#include <cstdio>
#include <unordered_map>

#include "src/support/json_parser.h"
#include "src/support/strings.h"

namespace turnstile {

namespace {
const Json& SharedNull() {
  static const Json kNull;
  return kNull;
}
}  // namespace

Json::Type Json::type() const {
  switch (data_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kNumber;
    case 3:
      return Type::kString;
    case 4:
      return Type::kArray;
    default:
      return Type::kObject;
  }
}

const Json& Json::operator[](std::string_view key) const {
  if (!is_object()) {
    return SharedNull();
  }
  for (const auto& [k, v] : object_items()) {
    if (k == key) {
      return v;
    }
  }
  return SharedNull();
}

const Json& Json::operator[](size_t index) const {
  if (!is_array() || index >= array_items().size()) {
    return SharedNull();
  }
  return array_items()[index];
}

bool Json::Has(std::string_view key) const {
  if (!is_object()) {
    return false;
  }
  for (const auto& [k, v] : object_items()) {
    (void)v;
    if (k == key) {
      return true;
    }
  }
  return false;
}

void Json::Set(std::string key, Json value) {
  if (is_null()) {
    data_ = JsonObject{};
  }
  JsonObject& fields = object_items();
  for (auto& [k, v] : fields) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  fields.emplace_back(std::move(key), std::move(value));
}

void Json::Append(Json value) {
  if (is_null()) {
    data_ = JsonArray{};
  }
  array_items().push_back(std::move(value));
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json& field = (*this)[key];
  return field.is_string() ? field.string_value() : fallback;
}

double Json::GetNumber(std::string_view key, double fallback) const {
  const Json& field = (*this)[key];
  return field.is_number() ? field.number_value() : fallback;
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json& field = (*this)[key];
  return field.is_bool() ? field.bool_value() : fallback;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void Json::DumpTo(std::string* out, bool pretty, int depth) const {
  const std::string indent = pretty ? std::string(2 * (depth + 1), ' ') : "";
  const std::string closing_indent = pretty ? std::string(2 * depth, ' ') : "";
  const char* newline = pretty ? "\n" : "";
  switch (type()) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_value() ? "true" : "false");
      return;
    case Type::kNumber:
      out->append(NumberToString(number_value()));
      return;
    case Type::kString:
      out->append(JsonQuote(string_value()));
      return;
    case Type::kArray: {
      const JsonArray& items = array_items();
      if (items.empty()) {
        out->append("[]");
        return;
      }
      out->append("[");
      out->append(newline);
      for (size_t i = 0; i < items.size(); ++i) {
        out->append(indent);
        items[i].DumpTo(out, pretty, depth + 1);
        if (i + 1 < items.size()) {
          out->append(",");
        }
        out->append(newline);
      }
      out->append(closing_indent);
      out->append("]");
      return;
    }
    case Type::kObject: {
      const JsonObject& fields = object_items();
      if (fields.empty()) {
        out->append("{}");
        return;
      }
      out->append("{");
      out->append(newline);
      for (size_t i = 0; i < fields.size(); ++i) {
        out->append(indent);
        out->append(JsonQuote(fields[i].first));
        out->append(pretty ? ": " : ":");
        fields[i].second.DumpTo(out, pretty, depth + 1);
        if (i + 1 < fields.size()) {
          out->append(",");
        }
        out->append(newline);
      }
      out->append(closing_indent);
      out->append("}");
      return;
    }
  }
}

std::string Json::Dump(bool pretty) const {
  std::string out;
  DumpTo(&out, pretty, 0);
  return out;
}

namespace {

// Builds a Json tree for JsonParser. Each object under construction keeps a
// key→index map, so a repeated key keeps its first position and takes the
// last value (what Set does) at one hash probe per field instead of Set's
// linear scan.
struct JsonTreeBuilder {
  struct Object {
    JsonObject fields;
    std::unordered_map<std::string, size_t> index;
  };
  using Node = Json;
  using Array = JsonArray;

  Json Null() { return Json(nullptr); }
  Json Bool(bool value) { return Json(value); }
  Json Number(double value) { return Json(value); }
  Json String(std::string value) { return Json(std::move(value)); }

  JsonArray BeginArray() { return {}; }
  void Append(JsonArray& items, Json item) { items.push_back(std::move(item)); }
  Json EndArray(JsonArray items) { return Json(std::move(items)); }

  Object BeginObject() { return {}; }
  void Put(Object& object, std::string key, Json value) {
    auto [it, inserted] = object.index.try_emplace(key, object.fields.size());
    if (inserted) {
      object.fields.emplace_back(std::move(key), std::move(value));
    } else {
      object.fields[it->second].second = std::move(value);
    }
  }
  Json EndObject(Object object) { return Json(std::move(object.fields)); }
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  JsonTreeBuilder builder;
  return JsonParser<JsonTreeBuilder>(text, builder).Parse();
}

}  // namespace turnstile
