#include "common/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace phisched {

std::optional<std::int64_t> read_int(std::string_view text) {
  // from_chars reads a leading '-' but not '+'; "+-5" stays refused.
  if (text.size() > 1 && text.front() == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  std::int64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> read_real(std::string_view text) {
  // strtod alone also reads whitespace, "inf", "nan" and hex ("0x10").
  if (text.empty() ||
      text.find_first_not_of("0123456789+-.eE") != std::string_view::npos) {
    return std::nullopt;
  }
  const std::string terminated(text);
  char* end = nullptr;
  const double value = std::strtod(terminated.c_str(), &end);
  if (end != terminated.c_str() + terminated.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace phisched
