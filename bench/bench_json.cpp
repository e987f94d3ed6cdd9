#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parse.hpp"

namespace phisched::bench {

namespace {

/// The value of `flag` as an integer in [lo, hi]; anything else exits 2.
[[nodiscard]] std::int64_t read_flag(std::string_view flag, const char* text,
                                     std::int64_t lo, std::int64_t hi) {
  const auto v = read_int(text);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr, "bench: %.*s wants a whole number in [%lld, %lld], "
                 "got '%s'\n", static_cast<int>(flag.size()), flag.data(),
                 static_cast<long long>(lo), static_cast<long long>(hi), text);
    std::exit(2);
  }
  return *v;
}

}  // namespace

bool run_json_mode(int argc, char** argv, const std::string& name,
                   const obs::SeedFn& run_seed) {
  bool json = false;
  std::string path = "BENCH_" + name + ".json";
  std::uint64_t seed_base = 42;
  std::size_t seeds = 5;
  unsigned threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench: %.*s needs a value\n",
                     static_cast<int>(arg.size()), arg.data());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
      // Optional path operand (not another flag).
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[++i];
    } else if (arg == "--seeds") {
      seeds = static_cast<std::size_t>(read_flag(arg, value(), 1, 1'000'000));
    } else if (arg == "--seed-base") {
      seed_base = static_cast<std::uint64_t>(
          read_flag(arg, value(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(read_flag(arg, value(), 0, 1024));
    } else if (arg == "--serial") {
      threads = 1;
    } else {
      std::fprintf(stderr, "bench: unknown flag %.*s\n",
                   static_cast<int>(arg.size()), arg.data());
      std::exit(2);
    }
  }
  if (!json) return false;

  // The cap the sweep runs under, not the seed count: a seed function
  // may run sweeps of its own, which share the cap.
  const unsigned used =
      threads > 0 ? threads : std::max(1u, std::thread::hardware_concurrency());

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<obs::SeedRun> runs =
      obs::sweep_seeds(seed_base, seeds, run_seed, threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::string doc = obs::bench_report_json(
      name, obs::current_environment(), runs, wall, used);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << doc << '\n';
  std::printf("wrote %s (%zu seeds, %u threads, %.2fs)\n", path.c_str(), seeds,
              used, wall);
  return true;
}

}  // namespace phisched::bench
