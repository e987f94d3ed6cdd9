// Cluster-scale sweep: 2,000 uniform jobs on 1,000 nodes under MCCK, the
// width at which the control plane (negotiator, add-on, ClassAd
// matching) rather than the event core decides the wall time.
//
// Two kinds of numbers come out, and the gate treats them differently:
//
//  * Simulation outputs (makespan, utilization, turnaround, event count)
//    are deterministic. The CI perf gate diffs them against
//    bench/golden/BENCH_scale.json with bench_diff --exact: bit-equal.
//  * Events per wall-clock second depend on the machine; they are
//    recorded for information and no gate reads them.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "workload/jobset.hpp"

namespace {

using namespace phisched;

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kJobs = 2000;
/// Wall-clock repetitions; the reported time is the minimum, the standard
/// way to keep scheduler noise out of a timing (the simulation output is
/// deterministic, so extra runs only cost wall time).
constexpr int kTimingReps = 2;

cluster::ExperimentConfig scale_config(std::uint64_t seed) {
  cluster::ExperimentConfig config;
  config.node_count = kNodes;
  config.stack = cluster::StackConfig::kMCCK;
  config.seed = seed;
  return config;
}

struct Timed {
  cluster::ExperimentResult result;
  double wall_s = 0.0;
};

Timed timed_run(std::uint64_t seed) {
  const auto jobs = workload::make_synthetic_jobset(
      workload::Distribution::kUniform, kJobs, Rng(seed).child("jobs"));
  Timed t;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    t.result = bench::run_stack(scale_config(seed), jobs);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (rep == 0 || wall < t.wall_s) t.wall_s = wall;
  }
  return t;
}

std::map<std::string, double> run_seed(std::uint64_t seed) {
  const Timed seq = timed_run(seed);
  std::map<std::string, double> m;
  m["scale.makespan_s"] = seq.result.makespan;
  m["scale.core_utilization"] = seq.result.avg_core_utilization;
  m["scale.mean_turnaround_s"] = seq.result.mean_turnaround;
  m["scale.events"] = static_cast<double>(seq.result.events_processed);
  m["scale.seq_events_per_sec"] =
      static_cast<double>(seq.result.events_processed) / seq.wall_s;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phisched::bench;

  if (run_json_mode(argc, argv, "scale", run_seed)) return 0;

  print_header("Cluster scale: 1,000-node synthetic sweep",
               "engine scalability (enables Figs. 5-7 at cluster scale)");

  const Timed seq = timed_run(42);
  std::printf("%llu events in %.2f s (%.0f events/s), makespan %.1f s, "
              "utilization %s, mean turnaround %.1f s\n",
              static_cast<unsigned long long>(seq.result.events_processed),
              seq.wall_s,
              static_cast<double>(seq.result.events_processed) / seq.wall_s,
              seq.result.makespan, pct(seq.result.avg_core_utilization).c_str(),
              seq.result.mean_turnaround);
  return 0;
}
