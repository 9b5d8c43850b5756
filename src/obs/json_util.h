// Minimal JSON utilities shared by the observability exporters (metrics
// JSONL, run telemetry, Chrome traces) and their readers: spec-correct
// escaping, deterministic number formatting, and one strict parser that
// builds a small DOM (tools/hfstat.cc) or validates (tests round-trip-check
// emitted documents).
#ifndef SRC_OBS_JSON_UTIL_H_
#define SRC_OBS_JSON_UTIL_H_

#include <string>
#include <utility>
#include <vector>

namespace hybridflow {

// Escapes a string for embedding inside a JSON string literal (without the
// surrounding quotes): '"', '\\', and every control character < 0x20 per
// RFC 8259 ('\n', '\t', '\r', '\b', '\f' use short escapes, the rest \u00XX).
std::string JsonEscape(const std::string& text);

// Formats a double as a JSON number token. Integral values print without a
// decimal point; non-finite values (which JSON cannot represent) print as
// null. Deterministic across platforms for golden tests.
std::string JsonNumber(double value);

// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;                                       // kString.
  std::vector<JsonValue> items;                           // kArray.
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject.

  // The first member named `key`, or null (also for non-objects).
  const JsonValue* Find(const std::string& key) const;
  // Member `key` if it is a number / string, else `fallback` / "".
  double Num(const std::string& key, double fallback = 0.0) const;
  std::string Str(const std::string& key) const;
};

// Parses `text` as exactly one well-formed JSON value (object, array,
// string, number, true/false/null) with only surrounding whitespace,
// strictly per RFC 8259. \uXXXX escapes decode to UTF-8. On failure
// returns false and, when `error` is non-null, a short position-annotated
// description.
bool JsonParse(const std::string& text, JsonValue* out, std::string* error = nullptr);

// JsonParse, discarding the value.
bool JsonValidate(const std::string& text, std::string* error = nullptr);

}  // namespace hybridflow

#endif  // SRC_OBS_JSON_UTIL_H_
