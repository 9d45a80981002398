#ifndef HYPER_COMMON_JSON_H_
#define HYPER_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hyper {

/// A minimal, dependency-free JSON document model. This is the wire format
/// of the serving layer (src/net) and the export format of the metrics
/// registry (src/obs): parse on the way in, JsonWriter on the way out.
///
/// Faithfulness notes that matter for the serving layer's bit-equality
/// contract:
///   - Numbers whose lexeme is an integral int64 (no '.', no exponent) are
///     kept as int64, so an intervention constant `2` round-trips as
///     Value::Int(2), exactly what an in-process caller would pass.
///   - Doubles are emitted with std::to_chars (shortest round-trip form),
///     so a served what-if value parses back to the identical bits the
///     engine produced.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) {
    JsonValue j;
    j.kind_ = Kind::kBool;
    j.bool_ = v;
    return j;
  }
  static JsonValue Int(int64_t v) {
    JsonValue j;
    j.kind_ = Kind::kNumber;
    j.is_integer_ = true;
    j.int_ = v;
    j.number_ = static_cast<double>(v);
    return j;
  }
  static JsonValue Number(double v) {
    JsonValue j;
    j.kind_ = Kind::kNumber;
    j.number_ = v;
    return j;
  }
  static JsonValue Str(std::string v) {
    JsonValue j;
    j.kind_ = Kind::kString;
    j.string_ = std::move(v);
    return j;
  }
  static JsonValue Array() {
    JsonValue j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static JsonValue Object() {
    JsonValue j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  /// True for numbers parsed from an integral lexeme that fits int64.
  bool is_integer() const { return kind_ == Kind::kNumber && is_integer_; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// The integer of an is_integer() value; 0 for any other value (a
  /// non-integral or out-of-range number is never truncated or cast).
  int64_t int_value() const { return int_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  void Append(JsonValue v) { array_.push_back(std::move(v)); }
  void Set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors with defaults, for request-body unpacking.
  std::string GetString(std::string_view key,
                        std::string fallback = "") const;
  double GetNumber(std::string_view key, double fallback = 0.0) const;

  /// Strict parse of a complete JSON document (trailing whitespace only).
  /// Depth-capped; malformed input returns ParseError with an offset.
  static Result<JsonValue> Parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  bool is_integer_ = false;
  double number_ = 0.0;
  int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes `text` for embedding inside a JSON string literal (quotes not
/// included).
std::string JsonEscape(std::string_view text);

/// Shortest round-trip rendering of a double (std::to_chars). NaN and
/// infinities — which JSON cannot carry — render as null.
std::string JsonDouble(double value);

/// Streaming writer for building JSON without an intermediate tree. Usage:
///   JsonWriter w;
///   w.BeginObject().Key("value").Double(v).Key("rows").Int(n).EndObject();
///   send(w.str());
/// The writer inserts commas; callers are responsible for well-formed
/// nesting (debug-checked).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Appends pre-serialized JSON as a value (e.g. an embedded snapshot).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();
  std::string out_;
  /// One frame per open container: 'o'/'a' with a "wrote first element"
  /// bit tracked via lowercase/uppercase.
  std::vector<char> stack_;
  bool after_key_ = false;
};

}  // namespace hyper

#endif  // HYPER_COMMON_JSON_H_
