// Minimal command-line flag parsing for the tools and examples.
//
// Supports `--name value` and `--name=value` forms plus `--flag`
// booleans; positional arguments are collected in order. No dependencies,
// deterministic error messages.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace phisched {

class ArgParser {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input
  /// (e.g. `--name` at the end when a value was expected is treated as a
  /// boolean flag, never an error).
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   std::string fallback) const;
  /// Throws std::invalid_argument unless read_int reads the value: a
  /// whole decimal number within the 64-bit range.
  [[nodiscard]] std::int64_t get_int_or(const std::string& name,
                                        std::int64_t fallback) const;
  /// Throws std::invalid_argument unless read_real reads the value: a
  /// finite decimal number.
  [[nodiscard]] double get_real_or(const std::string& name,
                                   double fallback) const;
  [[nodiscard]] bool get_bool_or(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Names that were provided but never queried — typo detection.
  [[nodiscard]] std::vector<std::string> unknown(
      const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

}  // namespace phisched
