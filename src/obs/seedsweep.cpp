#include "obs/seedsweep.hpp"

#include <thread>

#include "common/json.hpp"
#include "common/parallel.hpp"

namespace phisched::obs {

std::vector<SeedRun> sweep_seeds(std::uint64_t seed_base, std::size_t count,
                                 const SeedFn& fn, unsigned max_threads) {
  std::vector<SeedRun> out(count);
  parallel_for(
      count,
      [&](std::size_t i) {
        const std::uint64_t seed = seed_base + i;
        out[i] = SeedRun{seed, fn(seed)};
      },
      max_threads);
  return out;
}

BenchEnvironment current_environment() {
  BenchEnvironment env;
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
#if defined(NDEBUG)
  env.build_type = "release";
#else
  env.build_type = "debug";
#endif
#if defined(__linux__)
  env.os = "linux";
#elif defined(__APPLE__)
  env.os = "darwin";
#else
  env.os = "other";
#endif
  env.hardware_concurrency = std::thread::hardware_concurrency();
  return env;
}

std::string bench_report_json(const std::string& name,
                              const BenchEnvironment& env,
                              const std::vector<SeedRun>& runs,
                              double wall_time_s, unsigned threads_used,
                              bool pretty) {
  JsonWriter w(pretty);
  w.begin_object();
  w.member("bench", name);
  w.member("schema_version", std::int64_t{1});
  w.key("environment");
  w.begin_object();
  w.member("compiler", env.compiler);
  w.member("build_type", env.build_type);
  w.member("os", env.os);
  w.member("hardware_concurrency",
           static_cast<std::uint64_t>(env.hardware_concurrency));
  w.end_object();
  w.member("threads_used", static_cast<std::uint64_t>(threads_used));
  w.member("wall_time_s", wall_time_s);
  w.key("results");
  w.begin_array();
  for (const SeedRun& run : runs) {
    w.begin_object();
    w.member("seed", static_cast<std::uint64_t>(run.seed));
    w.key("metrics");
    w.begin_object();
    for (const auto& [key, value] : run.metrics) w.member(key, value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace phisched::obs
