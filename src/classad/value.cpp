#include "classad/value.hpp"

#include <cmath>
#include <cstdio>

namespace phisched::classad {

namespace {

/// Outcome of a tri-state comparison: LT/EQ/GT or not comparable.
enum class Cmp { kLt, kEq, kGt, kUndefined, kError };

Cmp compare(const Value& a, const Value& b) {
  if (a.is_error() || b.is_error()) return Cmp::kError;
  if (a.is_undefined() || b.is_undefined()) return Cmp::kUndefined;
  if (a.is_number() && b.is_number()) {
    const double x = a.number();
    const double y = b.number();
    if (x < y) return Cmp::kLt;
    if (x > y) return Cmp::kGt;
    return Cmp::kEq;
  }
  if (a.is_string() && b.is_string()) {
    const auto& s = a.as_string();
    const auto& t = b.as_string();
    const std::size_t n = std::min(s.size(), t.size());
    for (std::size_t i = 0; i < n; ++i) {
      const char x = fold_case(s[i]);
      const char y = fold_case(t[i]);
      if (x < y) return Cmp::kLt;
      if (x > y) return Cmp::kGt;
    }
    if (s.size() < t.size()) return Cmp::kLt;
    if (s.size() > t.size()) return Cmp::kGt;
    return Cmp::kEq;
  }
  if (a.is_boolean() && b.is_boolean()) {
    const int x = a.as_boolean() ? 1 : 0;
    const int y = b.as_boolean() ? 1 : 0;
    if (x < y) return Cmp::kLt;
    if (x > y) return Cmp::kGt;
    return Cmp::kEq;
  }
  return Cmp::kError;  // mixed, incomparable types
}

Value from_cmp(Cmp c, bool on_lt, bool on_eq, bool on_gt) {
  switch (c) {
    case Cmp::kLt: return Value::boolean(on_lt);
    case Cmp::kEq: return Value::boolean(on_eq);
    case Cmp::kGt: return Value::boolean(on_gt);
    case Cmp::kUndefined: return Value::undefined();
    case Cmp::kError: return Value::error();
  }
  return Value::error();
}

/// Arithmetic combiner: applies `fi` to integers, `fd` to promoted reals.
template <typename FInt, typename FReal>
Value arith(const Value& a, const Value& b, FInt fi, FReal fd) {
  if (a.is_error() || b.is_error()) return Value::error();
  if (a.is_undefined() || b.is_undefined()) return Value::undefined();
  if (a.is_integer() && b.is_integer()) return fi(a.as_integer(), b.as_integer());
  if (a.is_number() && b.is_number()) return fd(a.number(), b.number());
  return Value::error();
}

}  // namespace

ValueType Value::type() const {
  switch (data_.index()) {
    case 0: return ValueType::kUndefined;
    case 1: return ValueType::kError;
    case 2: return ValueType::kBoolean;
    case 3: return ValueType::kInteger;
    case 4: return ValueType::kReal;
    default: return ValueType::kString;
  }
}

double Value::number() const {
  if (is_integer()) return static_cast<double>(as_integer());
  if (is_real()) return as_real();
  return 0.0;
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::kUndefined: return "undefined";
    case ValueType::kError: return "error";
    case ValueType::kBoolean: return as_boolean() ? "true" : "false";
    case ValueType::kInteger: return std::to_string(as_integer());
    case ValueType::kReal: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%g", as_real());
      // %g drops the decimal point for whole numbers ("-8"), which would
      // reparse as an Integer; keep the Real type round-trippable.
      std::string out = buf;
      if (out.find_first_of(".eE") == std::string::npos) out += ".0";
      return out;
    }
    case ValueType::kString: {
      // Re-escape the lexer's escape set so the text parses back.
      std::string out = "\"";
      for (const char c : as_string()) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
      }
      return out + "\"";
    }
  }
  return "error";
}

bool Value::same_as(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kUndefined:
    case ValueType::kError: return true;
    case ValueType::kBoolean: return as_boolean() == other.as_boolean();
    case ValueType::kInteger: return as_integer() == other.as_integer();
    case ValueType::kReal: return as_real() == other.as_real();
    case ValueType::kString: return iequals(as_string(), other.as_string());
  }
  return false;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fold_case(a[i]) != fold_case(b[i])) return false;
  }
  return true;
}

bool iless(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char x = fold_case(a[i]);
    const char y = fold_case(b[i]);
    if (x != y) return x < y;
  }
  return a.size() < b.size();
}

Value op_add(const Value& a, const Value& b) {
  return arith(
      a, b, [](auto x, auto y) { return Value::integer(x + y); },
      [](double x, double y) { return Value::real(x + y); });
}

Value op_sub(const Value& a, const Value& b) {
  return arith(
      a, b, [](auto x, auto y) { return Value::integer(x - y); },
      [](double x, double y) { return Value::real(x - y); });
}

Value op_mul(const Value& a, const Value& b) {
  return arith(
      a, b, [](auto x, auto y) { return Value::integer(x * y); },
      [](double x, double y) { return Value::real(x * y); });
}

Value op_div(const Value& a, const Value& b) {
  return arith(
      a, b,
      [](std::int64_t x, std::int64_t y) {
        return y == 0 ? Value::error() : Value::integer(x / y);
      },
      [](double x, double y) {
        return y == 0.0 ? Value::error() : Value::real(x / y);
      });
}

Value op_mod(const Value& a, const Value& b) {
  return arith(
      a, b,
      [](std::int64_t x, std::int64_t y) {
        return y == 0 ? Value::error() : Value::integer(x % y);
      },
      [](double x, double y) {
        return y == 0.0 ? Value::error() : Value::real(std::fmod(x, y));
      });
}

Value op_neg(const Value& a) {
  if (a.is_error()) return Value::error();
  if (a.is_undefined()) return Value::undefined();
  if (a.is_integer()) return Value::integer(-a.as_integer());
  if (a.is_real()) return Value::real(-a.as_real());
  return Value::error();
}

Value op_eq(const Value& a, const Value& b) {
  return from_cmp(compare(a, b), false, true, false);
}
Value op_ne(const Value& a, const Value& b) {
  return from_cmp(compare(a, b), true, false, true);
}
Value op_lt(const Value& a, const Value& b) {
  return from_cmp(compare(a, b), true, false, false);
}
Value op_le(const Value& a, const Value& b) {
  return from_cmp(compare(a, b), true, true, false);
}
Value op_gt(const Value& a, const Value& b) {
  return from_cmp(compare(a, b), false, false, true);
}
Value op_ge(const Value& a, const Value& b) {
  return from_cmp(compare(a, b), false, true, true);
}

Value op_is(const Value& a, const Value& b) {
  return Value::boolean(a.same_as(b));
}
Value op_isnt(const Value& a, const Value& b) {
  return Value::boolean(!a.same_as(b));
}

namespace {
/// Truthiness for logic ops: false / 0 / 0.0 are false; strings are errors.
enum class Truth { kTrue, kFalse, kUndefined, kError };

Truth truth(const Value& v) {
  switch (v.type()) {
    case ValueType::kBoolean: return v.as_boolean() ? Truth::kTrue : Truth::kFalse;
    case ValueType::kInteger: return v.as_integer() != 0 ? Truth::kTrue : Truth::kFalse;
    case ValueType::kReal: return v.as_real() != 0.0 ? Truth::kTrue : Truth::kFalse;
    case ValueType::kUndefined: return Truth::kUndefined;
    default: return Truth::kError;
  }
}
}  // namespace

Value op_and(const Value& a, const Value& b) {
  const Truth ta = truth(a);
  const Truth tb = truth(b);
  if (ta == Truth::kFalse || tb == Truth::kFalse) return Value::boolean(false);
  if (ta == Truth::kError || tb == Truth::kError) return Value::error();
  if (ta == Truth::kUndefined || tb == Truth::kUndefined) return Value::undefined();
  return Value::boolean(true);
}

Value op_or(const Value& a, const Value& b) {
  const Truth ta = truth(a);
  const Truth tb = truth(b);
  if (ta == Truth::kTrue || tb == Truth::kTrue) return Value::boolean(true);
  if (ta == Truth::kError || tb == Truth::kError) return Value::error();
  if (ta == Truth::kUndefined || tb == Truth::kUndefined) return Value::undefined();
  return Value::boolean(false);
}

Value op_not(const Value& a) {
  switch (truth(a)) {
    case Truth::kTrue: return Value::boolean(false);
    case Truth::kFalse: return Value::boolean(true);
    case Truth::kUndefined: return Value::undefined();
    case Truth::kError: return Value::error();
  }
  return Value::error();
}

}  // namespace phisched::classad
