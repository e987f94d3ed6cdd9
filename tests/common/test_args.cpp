#include "common/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace phisched {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(Args, ProgramOnly) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_TRUE(args.positional().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(Args, SpaceSeparatedValues) {
  const auto args = parse({"prog", "--jobs", "100", "--stack", "MCCK"});
  EXPECT_EQ(args.get("jobs"), "100");
  EXPECT_EQ(args.get_or("stack", "x"), "MCCK");
}

TEST(Args, EqualsSeparatedValues) {
  const auto args = parse({"prog", "--jobs=250", "--rate=2.5"});
  EXPECT_EQ(args.get_int_or("jobs", 0), 250);
  EXPECT_DOUBLE_EQ(args.get_real_or("rate", 0.0), 2.5);
}

TEST(Args, BooleanFlags) {
  const auto args = parse({"prog", "--verbose", "--dry-run", "--jobs", "5"});
  EXPECT_TRUE(args.get_bool_or("verbose", false));
  EXPECT_TRUE(args.get_bool_or("dry-run", false));
  EXPECT_FALSE(args.get_bool_or("missing", false));
  EXPECT_TRUE(args.get_bool_or("missing", true));
}

TEST(Args, FlagAtEndIsBoolean) {
  const auto args = parse({"prog", "--series"});
  EXPECT_TRUE(args.get_bool_or("series", false));
}

TEST(Args, ExplicitBooleanValues) {
  const auto args = parse({"prog", "--a=false", "--b=yes", "--c=0"});
  EXPECT_FALSE(args.get_bool_or("a", true));
  EXPECT_TRUE(args.get_bool_or("b", false));
  EXPECT_FALSE(args.get_bool_or("c", true));
}

TEST(Args, Positional) {
  const auto args = parse({"prog", "input.txt", "--n", "3", "output.txt"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.txt", "output.txt"}));
}

TEST(Args, NegativeNumbers) {
  const auto args = parse({"prog", "--offset=-5"});
  EXPECT_EQ(args.get_int_or("offset", 0), -5);
}

TEST(Args, DefaultsWhenAbsent) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get_int_or("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_real_or("x", 1.5), 1.5);
  EXPECT_EQ(args.get_or("s", "d"), "d");
}

TEST(Args, MalformedNumbersThrow) {
  // Padding, hex and an exponent on an integer used to be read too.
  for (const char* value : {"abc", " 2", "2 ", "0x10", "1e3"}) {
    const auto args = parse({"prog", "--n", value});
    EXPECT_THROW((void)args.get_int_or("n", 0), std::invalid_argument)
        << value;
  }
  for (const char* value : {"1.2.3", " 2", "0x1.8p0", "0x10"}) {
    const auto args = parse({"prog", "--x", value});
    EXPECT_THROW((void)args.get_real_or("x", 0.0), std::invalid_argument)
        << value;
  }
}

TEST(Args, MalformedBooleanThrows) {
  const auto args = parse({"prog", "--b", "maybe"});
  EXPECT_THROW((void)args.get_bool_or("b", false), std::invalid_argument);
}

TEST(Args, UnknownDetection) {
  const auto args = parse({"prog", "--jobs", "5", "--typo", "x"});
  EXPECT_EQ(args.unknown({"jobs"}), (std::vector<std::string>{"typo"}));
  EXPECT_TRUE(args.unknown({"jobs", "typo"}).empty());
}

TEST(Args, LaterValueWins) {
  const auto args = parse({"prog", "--n", "1", "--n", "2"});
  EXPECT_EQ(args.get_int_or("n", 0), 2);
}

TEST(Args, BareDashesThrow) {
  EXPECT_THROW(parse({"prog", "--"}), std::invalid_argument);
}

TEST(Args, NonFiniteRealsThrow) {
  // strtod reads all of these; none is a usable knob, and a NaN
  // threshold silently fails every comparison against it.
  for (const char* value : {"nan", "NAN", "inf", "-inf", "infinity", "1e400",
                            "-1e400"}) {
    const auto args = parse({"prog", "--x", value});
    EXPECT_THROW((void)args.get_real_or("x", 0.0), std::invalid_argument)
        << value;
  }
  const auto args = parse({"prog", "--x", "1e300", "--y", "-0.5"});
  EXPECT_DOUBLE_EQ(args.get_real_or("x", 0.0), 1e300);
  EXPECT_DOUBLE_EQ(args.get_real_or("y", 0.0), -0.5);
}

TEST(Args, OutOfRangeIntegersThrow) {
  // strtoll would clamp these to INT64_MAX / INT64_MIN.
  for (const char* value : {"99999999999999999999", "-99999999999999999999",
                            "9223372036854775808"}) {
    const auto args = parse({"prog", "--n", value});
    EXPECT_THROW((void)args.get_int_or("n", 0), std::invalid_argument)
        << value;
  }
  const auto args = parse({"prog", "--max", "9223372036854775807", "--min",
                           "-9223372036854775808"});
  EXPECT_EQ(args.get_int_or("max", 0), INT64_MAX);
  EXPECT_EQ(args.get_int_or("min", 0), INT64_MIN);
}

}  // namespace
}  // namespace phisched
