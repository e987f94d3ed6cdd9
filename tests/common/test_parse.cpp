#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

namespace phisched {
namespace {

constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
constexpr auto kMax = std::numeric_limits<std::int64_t>::max();

TEST(ReadInt, AcceptsSignedDecimalDigits) {
  const struct {
    const char* text;
    std::int64_t value;
  } cases[] = {{"5", 5},
               {"-5", -5},
               {"+5", 5},
               {"007", 7},
               {"0", 0},
               {"-0", 0},
               {"-9223372036854775808", kMin},
               {"9223372036854775807", kMax}};
  for (const auto& c : cases) {
    EXPECT_EQ(read_int(c.text), std::optional<std::int64_t>(c.value))
        << c.text;
  }
}

TEST(ReadInt, RefusesEverythingElse) {
  for (const char* text :
       {"", " 5", "5 ", "+", "-", "+-5", "-+5", "++5", "--5", "0x10", "1e3",
        "5.", ".5", "5.0", "inf", "nan", "12..5", "5x",
        "9223372036854775808",    // INT64_MAX + 1
        "-9223372036854775809",   // INT64_MIN - 1
        "99999999999999999999"}) {
    EXPECT_EQ(read_int(text), std::nullopt) << "'" << text << "'";
  }
}

TEST(ReadReal, AcceptsDecimalSpellings) {
  const struct {
    const char* text;
    double value;
  } cases[] = {{"5", 5.0},       {"-5", -5.0},  {"+5", 5.0},
               {"007", 7.0},     {".5", 0.5},   {"5.", 5.0},
               {"0e0", 0.0},     {"1e-3", 1e-3}, {"1.5E+2", 150.0},
               {"-9223372036854775808", -9223372036854775808.0},
               {"9223372036854775807", 9223372036854775807.0},
               {"1e308", 1e308}, {"1e-400", 0.0}};
  for (const auto& c : cases) {
    EXPECT_EQ(read_real(c.text), std::optional<double>(c.value)) << c.text;
  }
}

TEST(ReadReal, RefusesHexNonFiniteWhitespaceAndPartialReads) {
  for (const char* text :
       {"", " 5", "5 ", "\t5", "0x10", "0x1p-1", "0x1.8p0", "inf", "-inf",
        "nan", "infinity", "1e400", "-1e400", "12..5", "1e", "e5", ".", "+",
        "-", "1,5", "5f"}) {
    EXPECT_EQ(read_real(text), std::nullopt) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace phisched
