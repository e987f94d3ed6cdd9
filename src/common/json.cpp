#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace phisched {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 passes through untouched
        }
    }
  }
  return out;
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, x);
  PHISCHED_CHECK(ec == std::errc{}, "json_number: to_chars failed");
  return std::string(buf, ptr);
}

std::string json_number(std::uint64_t x) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, x);
  PHISCHED_CHECK(ec == std::errc{}, "json_number: to_chars failed");
  return std::string(buf, ptr);
}

std::string json_number(std::int64_t x) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, x);
  PHISCHED_CHECK(ec == std::errc{}, "json_number: to_chars failed");
  return std::string(buf, ptr);
}

// ---------------------------------------------------------------------------
// Reader: recursive descent over RFC 8259, building values as it goes.

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

/// RFC 8259 section 6: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
bool rfc_number(std::string_view t) {
  std::size_t i = 0;
  const auto accept = [&](std::string_view set) {
    const bool hit = i < t.size() && set.find(t[i]) != std::string_view::npos;
    if (hit) ++i;
    return hit;
  };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    return i > from;
  };
  accept("-");
  if (!accept("0") && !digits()) return false;
  if (accept(".") && !digits()) return false;
  if (accept("eE")) {
    accept("+-");
    if (!digits()) return false;
  }
  return i == t.size();
}

/// Appends code point `cp` (at most 0x10FFFF) as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  std::optional<JsonValue> run(JsonError* error) {
    JsonValue out;
    bool ok = value(out, 0);
    if (ok) {
      skip_ws();
      ok = pos_ == s_.size() || fail("trailing characters after the document");
    }
    if (ok) return out;
    if (error != nullptr) *error = std::move(error_);
    return std::nullopt;
  }

 private:
  /// Records the error at the current offset. Every caller returns at
  /// once, so the first error is the one kept.
  bool fail(std::string message) {
    error_ = {pos_, std::move(message)};
    return false;
  }
  [[nodiscard]] bool at(char c) const {
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool accept(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      return fail("expected \"" + std::string(word) + "\"");
    }
    pos_ += word.size();
    return true;
  }

  /// `depth` counts the arrays and objects around this value.
  bool value(JsonValue& out, int depth) {
    skip_ws();
    if (pos_ == s_.size()) return fail("unexpected end of input");
    if ((at('[') || at('{')) && depth == kMaxJsonDepth) {
      return fail("nesting deeper than the reader's limit of " +
                  std::to_string(kMaxJsonDepth) + " levels");
    }
    switch (s_[pos_]) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (accept('}')) return true;
    for (;;) {
      skip_ws();
      if (!at('"')) return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!accept(':')) return fail("expected ':' after object key");
      JsonValue member;
      if (!value(member, depth)) return false;
      out.object.emplace(std::move(key), std::move(member));
      skip_ws();
      if (accept('}')) return true;
      if (!accept(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (accept(']')) return true;
    for (;;) {
      JsonValue element;
      if (!value(element, depth)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (accept(']')) return true;
      if (!accept(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out += c;  // UTF-8 passes through untouched
        continue;
      }
      if (pos_ == s_.size()) break;
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!code_point(out)) return false;
          break;
        default:
          --pos_;
          return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  /// The code point of a \u escape (a surrogate pair takes two), as UTF-8.
  bool code_point(std::string& out) {
    std::uint32_t cp = 0;
    if (!hex4(cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("unpaired surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      std::uint32_t low = 0;
      if (s_.substr(pos_, 2) != "\\u") return fail("unpaired surrogate");
      pos_ += 2;
      if (!hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool hex4(std::uint32_t& cp) {
    const char* const first = s_.data() + pos_;
    const char* const last = first + std::min<std::size_t>(4, s_.size() - pos_);
    const auto [ptr, ec] = std::from_chars(first, last, cp, 16);
    if (last - first < 4 || ec != std::errc{} || ptr != last) {
      return fail("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return true;
  }

  bool number(JsonValue& out) {
    const std::string_view token = s_.substr(
        pos_, s_.find_first_not_of("0123456789+-.eE", pos_) - pos_);
    if (token.empty()) return fail("unexpected character");
    const auto parsed = rfc_number(token) ? read_real(token) : std::nullopt;
    if (!parsed) {
      return fail("malformed number \"" + std::string(token.substr(0, 16)) +
                  "\"");
    }
    pos_ += token.size();
    out.kind = JsonValue::Kind::kNumber;
    out.number = *parsed;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  JsonError error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, JsonError* error) {
  return Reader(text).run(error);
}

// ---------------------------------------------------------------------------
// Writer.

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(stack_.size() * 2, ' ');
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  if (stack_.back() == Scope::kObject) {
    PHISCHED_REQUIRE(have_key_, "JsonWriter: object member needs key() first");
    have_key_ = false;
    return;
  }
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  newline_indent();
}

void JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Scope::kObject);
  first_.push_back(true);
}

void JsonWriter::end_object() {
  PHISCHED_REQUIRE(!stack_.empty() && stack_.back() == Scope::kObject,
                   "JsonWriter: end_object outside object");
  const bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) newline_indent();
  out_ += '}';
}

void JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Scope::kArray);
  first_.push_back(true);
}

void JsonWriter::end_array() {
  PHISCHED_REQUIRE(!stack_.empty() && stack_.back() == Scope::kArray,
                   "JsonWriter: end_array outside array");
  const bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) newline_indent();
  out_ += ']';
}

void JsonWriter::key(std::string_view k) {
  PHISCHED_REQUIRE(!stack_.empty() && stack_.back() == Scope::kObject,
                   "JsonWriter: key outside object");
  PHISCHED_REQUIRE(!have_key_, "JsonWriter: key already pending");
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  newline_indent();
  out_ += '"';
  out_ += json_escape(k);
  out_ += pretty_ ? "\": " : "\":";
  have_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
}

void JsonWriter::value(double x) {
  before_value();
  out_ += json_number(x);
}

void JsonWriter::value(std::uint64_t x) {
  before_value();
  out_ += json_number(x);
}

void JsonWriter::value(std::int64_t x) {
  before_value();
  out_ += json_number(x);
}

void JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
}

void JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
}

std::string JsonWriter::str() && {
  PHISCHED_REQUIRE(stack_.empty(), "JsonWriter: unbalanced begin/end");
  if (pretty_) out_ += '\n';
  return std::move(out_);
}

}  // namespace phisched
