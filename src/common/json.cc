#include "common/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace hyper {

namespace {

constexpr size_t kMaxDepth = 100;

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    SkipWs();
    JsonValue value;
    HYPER_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::ParseError(StrFormat("json: %s (at offset %zu)",
                                        what.c_str(), pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      JsonValue key;
      HYPER_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWs();
      JsonValue value;
      HYPER_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(key.string_value(), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (;;) {
      SkipWs();
      JsonValue value;
      HYPER_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseBool(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = JsonValue::Bool(true);
      return Status::OK();
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = JsonValue::Bool(false);
      return Status::OK();
    }
    return Fail("invalid literal");
  }

  Status ParseNull(JsonValue* out) {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      *out = JsonValue::Null();
      return Status::OK();
    }
    return Fail("invalid literal");
  }

  Status ParseString(JsonValue* out) {
    ++pos_;  // '"'
    std::string value;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        *out = JsonValue::Str(std::move(value));
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        value.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value.push_back('"'); break;
        case '\\': value.push_back('\\'); break;
        case '/': value.push_back('/'); break;
        case 'b': value.push_back('\b'); break;
        case 'f': value.push_back('\f'); break;
        case 'n': value.push_back('\n'); break;
        case 'r': value.push_back('\r'); break;
        case 't': value.push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          HYPER_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!(Consume('\\') && Consume('u'))) {
              return Fail("lone high surrogate");
            }
            uint32_t low = 0;
            HYPER_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(cp, &value);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(
                                    text_[pos_]))) {
      return Fail("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(
                                      text_[pos_]))) {
        return Fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(
                                      text_[pos_]))) {
        return Fail("invalid exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(lexeme.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        *out = JsonValue::Int(static_cast<int64_t>(v));
        return Status::OK();
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(lexeme.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("invalid number");
    *out = JsonValue::Number(d);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value()
                                          : std::move(fallback);
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out.append(StrFormat("\\u%04x", c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";  // cannot happen with a 64-byte buf
  return std::string(buf, ptr);
}

// --- JsonWriter -------------------------------------------------------------

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  char& top = stack_.back();
  if (top == 'o' || top == 'a') {
    top = static_cast<char>(top - 32);  // mark "first element written"
  } else {
    out_.push_back(',');
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back('o');
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty() && (stack_.back() == 'o' || stack_.back() == 'O'));
  stack_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back('a');
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty() && (stack_.back() == 'a' || stack_.back() == 'A'));
  stack_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && (stack_.back() == 'o' || stack_.back() == 'O'));
  BeforeValue();
  out_.push_back('"');
  out_.append(JsonEscape(key));
  out_.append("\":");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  out_.append(JsonEscape(value));
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  out_.append(JsonDouble(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_.append(json);
  return *this;
}

}  // namespace hyper
