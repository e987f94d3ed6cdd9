#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
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

/// The BENCH_<name>.json document: name, build environment, wall time
/// and one metric map per seed, seed_base first. The "results" array
/// depends only on the seeds run, never on scheduling, so serial and
/// parallel sweeps of the same seeds serialize identically there.
[[nodiscard]] std::string bench_report_json(
    const std::string& name, std::uint64_t seed_base,
    const std::vector<std::map<std::string, double>>& results,
    double wall_time_s, unsigned threads_used) {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.member("bench", name);
  w.member("schema_version", std::int64_t{1});
  w.key("environment");
  w.begin_object();
#if defined(__clang__)
  w.member("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.member("compiler", std::string("gcc ") + __VERSION__);
#else
  w.member("compiler", "unknown");
#endif
#if defined(NDEBUG)
  w.member("build_type", "release");
#else
  w.member("build_type", "debug");
#endif
#if defined(__linux__)
  w.member("os", "linux");
#elif defined(__APPLE__)
  w.member("os", "darwin");
#else
  w.member("os", "other");
#endif
  w.member("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.end_object();
  w.member("threads_used", static_cast<std::uint64_t>(threads_used));
  w.member("wall_time_s", wall_time_s);
  w.key("results");
  w.begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    w.begin_object();
    w.member("seed", static_cast<std::uint64_t>(seed_base + i));
    w.key("metrics");
    w.begin_object();
    for (const auto& [key, value] : results[i]) w.member(key, value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace

bool run_json_mode(int argc, char** argv, const std::string& name,
                   const SeedFn& run_seed) {
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
  // Results are stored by seed index, so the sweep's order of work
  // cannot reach the report.
  std::vector<std::map<std::string, double>> results(seeds);
  parallel_for(
      seeds, [&](std::size_t i) { results[i] = run_seed(seed_base + i); },
      threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::string doc =
      bench_report_json(name, seed_base, results, wall, used);
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
