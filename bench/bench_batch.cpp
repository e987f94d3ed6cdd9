// Batched vs per-job negotiation on the Fig. 7 synthetic distributions:
// MC / MCC / MCCK each run twice on the paper's 8-node testbed — once
// with the classic per-job FIFO walk and once with the batched
// occupancy-aware pipeline (batch:size=16,occ=0.9,packer=dp2d) — and the
// golden records the makespan / wait / turnaround / utilization deltas.
//
//  * Every metric here is a deterministic simulation output, so the CI
//    gate (tests/bench_batch_gate.cmake) diffs them at bench_diff's
//    default tolerance against bench/golden/BENCH_batch.json.
//  * The batch strategy's decisions must be pure functions of the cycle
//    snapshot: this harness hard-fails if a batched MCCK run diverges
//    from its own repeat, so the perf gate doubles as the determinism
//    check at workload scale.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "condor/strategy.hpp"
#include "workload/jobset.hpp"

namespace {

using namespace phisched;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kJobs = 200;
constexpr const char* kBatchSpec = "batch:size=16,occ=0.9,packer=dp2d";

const cluster::StackConfig kStacks[] = {
    cluster::StackConfig::kMC,
    cluster::StackConfig::kMCC,
    cluster::StackConfig::kMCCK,
};

cluster::ExperimentConfig stack_config(cluster::StackConfig stack,
                                       std::uint64_t seed, bool batched) {
  cluster::ExperimentConfig config = bench::paper_cluster(stack, kNodes, seed);
  if (batched) config.negotiation = condor::parse_negotiation(kBatchSpec);
  return config;
}

/// The determinism contract, enforced at bench scale: batch decisions are
/// pure functions of the cycle snapshot + cycle RNG draws, so a repeat
/// drifting is a correctness bug — die loudly.
void require_identical(const cluster::ExperimentResult& a,
                       const cluster::ExperimentResult& b, const char* what) {
  const bool same = a.makespan == b.makespan &&
                    a.avg_core_utilization == b.avg_core_utilization &&
                    a.device_energy_mj == b.device_energy_mj &&
                    a.mean_turnaround == b.mean_turnaround &&
                    a.jobs_completed == b.jobs_completed &&
                    a.jobs_failed == b.jobs_failed &&
                    a.negotiation_cycles == b.negotiation_cycles &&
                    a.matches == b.matches &&
                    a.offloads_started == b.offloads_started &&
                    a.events_processed == b.events_processed;
  if (!same) {
    std::fprintf(stderr,
                 "bench_batch: %s diverged (makespan %.17g vs %.17g, events "
                 "%llu vs %llu)\n",
                 what, b.makespan, a.makespan,
                 static_cast<unsigned long long>(b.events_processed),
                 static_cast<unsigned long long>(a.events_processed));
    std::exit(1);
  }
}

std::map<std::string, double> run_seed(std::uint64_t seed) {
  std::map<std::string, double> m;
  for (const auto distribution : workload::all_distributions()) {
    const std::string dist = workload::distribution_slug(distribution);
    const auto jobs = workload::make_synthetic_jobset(
        distribution, kJobs, Rng(seed).child("jobs"));
    for (const auto stack : kStacks) {
      const std::string tag =
          std::string("batch.") + dist + "." + cluster::stack_config_name(stack);
      const auto fifo =
          bench::run_stack(stack_config(stack, seed, false), jobs);
      const auto batch = bench::run_stack(stack_config(stack, seed, true), jobs);
      if (stack == cluster::StackConfig::kMCCK) {
        require_identical(
            batch, bench::run_stack(stack_config(stack, seed, true), jobs),
            "batched MCCK repeat");
      }
      m[tag + ".fifo.makespan_s"] = fifo.makespan;
      m[tag + ".fifo.mean_wait_s"] = fifo.wait_time.mean();
      m[tag + ".fifo.mean_turnaround_s"] = fifo.mean_turnaround;
      m[tag + ".fifo.core_utilization"] = fifo.avg_core_utilization;
      m[tag + ".batch.makespan_s"] = batch.makespan;
      m[tag + ".batch.mean_wait_s"] = batch.wait_time.mean();
      m[tag + ".batch.mean_turnaround_s"] = batch.mean_turnaround;
      m[tag + ".batch.core_utilization"] = batch.avg_core_utilization;
      m[tag + ".makespan_ratio"] = batch.makespan / fifo.makespan;
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phisched::bench;

  if (run_json_mode(argc, argv, "batch", run_seed)) return 0;

  print_header("Batched occupancy-aware negotiation vs per-job FIFO",
               "negotiation-pipeline ablation on the Fig. 7 distributions");

  phisched::AsciiTable table({"Distribution", "Stack", "Mode", "Makespan (s)",
                              "Mean wait (s)", "Utilization"});
  for (const auto distribution : phisched::workload::all_distributions()) {
    const auto jobs = phisched::workload::make_synthetic_jobset(
        distribution, kJobs, phisched::Rng(42).child("jobs"));
    for (const auto stack : kStacks) {
      for (const bool batched : {false, true}) {
        const auto r = run_stack(stack_config(stack, 42, batched), jobs);
        table.add_row({phisched::workload::distribution_name(distribution),
                       phisched::cluster::stack_config_name(stack),
                       batched ? kBatchSpec : "fifo",
                       phisched::AsciiTable::cell(r.makespan, 1),
                       phisched::AsciiTable::cell(r.wait_time.mean(), 1),
                       pct(r.avg_core_utilization)});
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
