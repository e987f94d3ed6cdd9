// The one reader of numbers in text: command-line values, the jobset
// format, the `--arrivals`, `--negotiation` and `--devices` specs,
// arrival traces and the numbers of JSON documents all go through these
// two functions, so one spelling means the same thing everywhere.
//
// Both read the whole string or nothing: no leading or trailing
// whitespace, no partial prefix. Each returns std::nullopt on any
// refusal, so callers keep their own range checks and messages.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace phisched {

/// An optional sign and decimal digits ("5", "-5", "+5", "007"),
/// within [INT64_MIN, INT64_MAX]. No exponent, point or hex.
[[nodiscard]] std::optional<std::int64_t> read_int(std::string_view text);

/// A finite decimal number: an optional sign, digits with an optional
/// point, and an optional exponent ("5", "-.5", "5.", "1e-3"), read as
/// the C library reads them. Hex, "inf", "nan" and overflow ("1e400")
/// are refused; underflow reads as zero or a subnormal.
[[nodiscard]] std::optional<double> read_real(std::string_view text);

}  // namespace phisched
