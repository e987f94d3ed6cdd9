// Positional arguments of the examples, read with the library's one
// number reader (common/parse.hpp). A value that is not a number in its
// range prints the usage line and exits 2, naming the argument.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/parse.hpp"

namespace phisched::examples {

inline constexpr std::int64_t kMaxJobs = 1'000'000;
inline constexpr std::int64_t kMaxNodes = 4096;
inline constexpr std::int64_t kMaxSeed =
    std::numeric_limits<std::int64_t>::max();

class PositionalArgs {
 public:
  PositionalArgs(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Argument `i` (1-based) as an integer in [lo, hi]; `fallback` when
  /// it is absent.
  [[nodiscard]] std::int64_t integer(int i, const char* name,
                                     std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi) const {
    if (i >= argc_) return fallback;
    const std::optional<std::int64_t> value = read_int(argv_[i]);
    if (value && *value >= lo && *value <= hi) return *value;
    refuse(i, name,
           "a whole number in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  }

  /// Argument `i` (1-based) as a finite number above 0; `fallback` when
  /// it is absent.
  [[nodiscard]] double positive(int i, const char* name,
                                double fallback) const {
    if (i >= argc_) return fallback;
    const std::optional<double> value = read_real(argv_[i]);
    if (value && *value > 0.0) return *value;
    refuse(i, name, "a number above 0");
  }

 private:
  [[noreturn]] void refuse(int i, const char* name,
                           const std::string& wanted) const {
    std::fprintf(stderr, "%s wants %s, got '%s'\nusage: %s\n", name,
                 wanted.c_str(), argv_[i], usage_);
    std::exit(2);
  }

  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace phisched::examples
