#include "common/args.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace phisched {

ArgParser::ArgParser(int argc, const char* const* argv) {
  PHISCHED_REQUIRE(argc >= 1, "ArgParser: argc must be at least 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    PHISCHED_REQUIRE(!body.empty(), "ArgParser: bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      named_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag or missing:
    // then it is a boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      named_[body] = argv[++i];
    } else {
      named_[body] = "true";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return named_.find(name) != named_.end();
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  auto it = named_.find(name);
  if (it == named_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(const std::string& name,
                              std::string fallback) const {
  return get(name).value_or(std::move(fallback));
}

std::int64_t ArgParser::get_int_or(const std::string& name,
                                   std::int64_t fallback) const {
  const auto v = get(name);
  if (!v.has_value()) return fallback;
  const auto out = read_int(*v);
  PHISCHED_REQUIRE(out.has_value(), "ArgParser: --" + name +
                                        " expects an integer in the 64-bit "
                                        "range, got '" + *v + "'");
  return *out;
}

double ArgParser::get_real_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v.has_value()) return fallback;
  const auto out = read_real(*v);
  PHISCHED_REQUIRE(out.has_value(), "ArgParser: --" + name +
                                        " expects a finite decimal number, "
                                        "got '" + *v + "'");
  return *out;
}

bool ArgParser::get_bool_or(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v.has_value()) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  PHISCHED_REQUIRE(false, "ArgParser: --" + name + " expects a boolean, got '" +
                              *v + "'");
  return fallback;
}

std::vector<std::string> ArgParser::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, _] : named_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace phisched
