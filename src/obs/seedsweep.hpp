// phisched::obs — seed-sweep machinery behind the machine-readable bench
// runner (bench/bench_json).
//
// A bench harness is, per seed, a pure function seed -> flat metric map.
// sweep_seeds runs that function for a contiguous seed range through
// parallel_for; results are stored by seed index, so a parallel sweep is
// bit-identical to a serial one (max_threads = 1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace phisched::obs {

struct SeedRun {
  std::uint64_t seed = 0;
  std::map<std::string, double> metrics;

  friend bool operator==(const SeedRun&, const SeedRun&) = default;
};

using SeedFn = std::function<std::map<std::string, double>(std::uint64_t)>;

/// Runs fn(seed_base + i) for i in [0, count) and returns the results in
/// seed order. max_threads caps the threads of the whole sweep, sweeps
/// nested in `fn` included (0 = hardware concurrency, 1 = serial in the
/// caller).
[[nodiscard]] std::vector<SeedRun> sweep_seeds(std::uint64_t seed_base,
                                               std::size_t count,
                                               const SeedFn& fn,
                                               unsigned max_threads = 0);

/// Build/environment description stamped into BENCH_*.json files.
struct BenchEnvironment {
  std::string compiler;
  std::string build_type;
  std::string os;
  unsigned hardware_concurrency = 0;
};

[[nodiscard]] BenchEnvironment current_environment();

/// The BENCH_<name>.json document: name + config + environment + wall
/// time + per-seed metrics. The "results" array depends only on
/// (seed_base, runs), never on scheduling, so serial/parallel sweeps of
/// the same seeds serialize identically there.
[[nodiscard]] std::string bench_report_json(
    const std::string& name, const BenchEnvironment& env,
    const std::vector<SeedRun>& runs, double wall_time_s,
    unsigned threads_used, bool pretty = true);

}  // namespace phisched::obs
