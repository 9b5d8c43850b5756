#include "src/obs/json_util.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace hybridflow {

// Short escapes as (escape, character) pairs. The reader accepts all of
// them; the writer skips the first, leaving '/' unescaped.
constexpr char kShortEscapes[] = "//\"\"\\\\b\bf\fn\nr\rt\t";

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const char* pair = kShortEscapes + 2;
    while (*pair != '\0' && pair[1] != c) {
      pair += 2;
    }
    if (*pair != '\0') {
      out += '\\';
      out += pair[0];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";  // JSON cannot represent NaN/Inf.
  }
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(value));
    return buffer;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

double JsonValue::Num(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->kind == Kind::kNumber ? value->number : fallback;
}

std::string JsonValue::Str(const std::string& key) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->kind == Kind::kString ? value->text : std::string();
}

namespace {

void AppendUtf8(unsigned code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

// Recursive-descent parser over the raw bytes (treats the input as
// Latin-1; multi-byte UTF-8 passes through unexamined, which is fine for
// the repo's own ASCII-producing exporters).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWhitespace();
    if (!Value(out)) {
      Fail(error);
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      message_ = "trailing characters after JSON value";
      Fail(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  void Fail(std::string* error) const {
    if (error != nullptr) {
      *error = message_.empty() ? "malformed JSON" : message_;
      *error += " (at byte " + std::to_string(pos_) + ")";
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool AtEnd() const { return pos_ >= text_.size(); }
  bool IsDigit() const { return std::isdigit(static_cast<unsigned char>(Peek())) != 0; }

  void SkipWhitespace() {
    while (!AtEnd() && std::string_view(" \t\n\r").find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      message_ = "invalid literal";
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (Peek() != '"') {
      message_ = "expected string";
      return false;
    }
    ++pos_;
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        message_ = "raw control character in string";
        return false;
      }
      ++pos_;
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
      } else if (Peek() == 'u') {
        ++pos_;
        for (size_t k = 0; k < 4; ++k) {
          if (std::isxdigit(static_cast<unsigned char>(
                  pos_ + k < text_.size() ? text_[pos_ + k] : '\0')) == 0) {
            message_ = "bad \\u escape";
            return false;
          }
        }
        AppendUtf8(static_cast<unsigned>(std::stoul(text_.substr(pos_, 4), nullptr, 16)), out);
        pos_ += 4;
      } else {
        const char* pair = kShortEscapes;
        while (*pair != '\0' && *pair != Peek()) {
          pair += 2;
        }
        if (*pair == '\0') {
          message_ = "bad escape character";
          return false;
        }
        out->push_back(pair[1]);
        ++pos_;
      }
    }
    message_ = "unterminated string";
    return false;
  }

  // Consumes one or more digits; `what` names them in the error.
  bool Digits(const char* what) {
    if (!IsDigit()) {
      message_ = std::string("expected ") + what;
      return false;
    }
    while (IsDigit()) {
      ++pos_;
    }
    return true;
  }

  bool Number(double* out) {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (Peek() == '0') {
      ++pos_;
    } else if (!Digits("digit")) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!Digits("fraction digits")) {
        return false;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!Digits("exponent digits")) {
        return false;
      }
    }
    *out = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  bool Value(JsonValue* out) {
    if (++depth_ > kMaxDepth) {
      message_ = "nesting too deep";
      return false;
    }
    bool ok = false;
    switch (Peek()) {
      case '{':
        out->kind = JsonValue::Kind::kObject;
        ok = Members(out, '}');
        break;
      case '[':
        out->kind = JsonValue::Kind::kArray;
        ok = Members(out, ']');
        break;
      case '"':
        out->kind = JsonValue::Kind::kString;
        ok = String(&out->text);
        break;
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        ok = Literal("true");
        break;
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        ok = Literal("false");
        break;
      case 'n':
        ok = Literal("null");
        break;
      default:
        out->kind = JsonValue::Kind::kNumber;
        ok = Number(&out->number);
    }
    --depth_;
    return ok;
  }

  // The comma-separated members of an object (`close` '}') or the items of
  // an array (`close` ']'), after the opening bracket.
  bool Members(JsonValue* out, char close) {
    const bool object = close == '}';
    ++pos_;
    SkipWhitespace();
    if (Peek() == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      JsonValue* value = nullptr;
      if (object) {
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipWhitespace();
        if (Peek() != ':') {
          message_ = "expected ':' in object";
          return false;
        }
        ++pos_;
        SkipWhitespace();
        value = &out->fields.emplace_back(std::move(key), JsonValue()).second;
      } else {
        value = &out->items.emplace_back();
      }
      if (!Value(value)) {
        return false;
      }
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == close) {
        ++pos_;
        return true;
      }
      message_ = object ? "expected ',' or '}' in object" : "expected ',' or ']' in array";
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string message_;
};

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return JsonParser(text).Parse(out, error);
}

bool JsonValidate(const std::string& text, std::string* error) {
  JsonValue discarded;
  return JsonParse(text, &discarded, error);
}

}  // namespace hybridflow
