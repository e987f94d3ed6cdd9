// JSON with deterministic output, and the one JSON reader.
//
// The writer serves the telemetry exporters (obs) and the
// machine-readable bench runner; the reader (json_parse) serves
// bench_diff and anything else that reads a report back.
//
// Design constraints:
//  * Deterministic formatting — golden-file tests and the "parallel bench
//    runs are bit-identical to serial runs" guarantee both depend on the
//    exact bytes. Doubles are printed with std::to_chars (shortest
//    round-trip form), which is platform-independent for IEEE-754.
//  * One grammar: json_parse reads RFC 8259 and nothing else — no
//    leading '+', leading zeros, bare points, comments or raw control
//    characters in strings — and bounds nesting, so hostile input is an
//    error with a byte offset, never a crash.
//  * No dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace phisched {

/// Escapes a string for inclusion inside JSON quotes (adds no quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest round-trip decimal form of `x`; NaN/Inf render as "null"
/// (JSON has no representation for them).
[[nodiscard]] std::string json_number(double x);
[[nodiscard]] std::string json_number(std::uint64_t x);
[[nodiscard]] std::string json_number(std::int64_t x);

/// One value of a parsed document. Numbers are doubles; strings hold
/// UTF-8 (\u escapes decoded); an object keeps the first of repeated keys.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue, std::less<>> object;

  /// The object member named `key`, or null when there is none.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Arrays and objects nest at most this deep in a document json_parse
/// accepts; deeper input is an error, not a stack overflow (the bound
/// classad::kMaxParseDepth puts on expressions).
inline constexpr int kMaxJsonDepth = 256;

/// The first error json_parse met and the byte offset it met it at.
struct JsonError {
  std::size_t offset = 0;
  std::string message;
};

/// Reads `text` as one JSON document (RFC 8259) with optional
/// surrounding whitespace. On failure returns std::nullopt and, when
/// `error` is given, fills it.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  JsonError* error = nullptr);

/// Streaming JSON writer: explicit begin/end calls, automatic commas.
///
///   JsonWriter w(/*pretty=*/true);
///   w.begin_object();
///   w.key("makespan"); w.value(123.5);
///   w.key("series"); w.begin_array(); w.value(1.0); w.end_array();
///   w.end_object();
///   std::string out = std::move(w).str();
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = false) : pretty_(pretty) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Next member's key; must be inside an object.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double x);
  void value(std::uint64_t x);
  void value(std::int64_t x);
  void value(int x) { value(static_cast<std::int64_t>(x)); }
  void value(unsigned x) { value(static_cast<std::uint64_t>(x)); }
  void value(bool b);
  void null();

  /// Splices a pre-serialized JSON value verbatim (the caller guarantees
  /// its validity); commas and pending keys are handled as for value().
  void raw(std::string_view json);

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void member(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// The document so far. The writer must be back at nesting depth 0.
  [[nodiscard]] std::string str() &&;
  [[nodiscard]] const std::string& peek() const { return out_; }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  void before_value();
  void newline_indent();

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> first_;
  bool pretty_ = false;
  bool have_key_ = false;
};

}  // namespace phisched
