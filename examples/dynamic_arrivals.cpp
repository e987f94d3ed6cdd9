// The paper's "future work": a dynamic scenario with continuously
// arriving jobs. Jobs arrive as a Poisson stream; the sharing-aware
// scheduler treats the pending queue at each negotiation cycle as the
// static snapshot it packs (paper Section IV-D, Limitations).
//
// This example drives the step-driven cluster::Harness directly: jobs
// are submitted up front as future arrivals, the event loop is advanced
// incrementally with run_until(), and a non-perturbing snapshot() peeks
// at the cluster while the arrival stream is still live.
//
//   ./dynamic_arrivals [arrival_rate_jobs_per_sec] [num_jobs] [seed]
#include <cstdio>

#include "cluster/harness.hpp"
#include "common/table.hpp"
#include "example_args.hpp"
#include "workload/jobset.hpp"

int main(int argc, char** argv) {
  using namespace phisched;
  using namespace phisched::examples;

  const PositionalArgs args(
      argc, argv,
      "dynamic_arrivals [arrival_rate_jobs_per_sec] [num_jobs] [seed]");
  const double rate = args.positive(1, "arrival_rate_jobs_per_sec", 2.0);
  const auto num_jobs =
      static_cast<std::size_t>(args.integer(2, "num_jobs", 400, 1, kMaxJobs));
  const auto seed =
      static_cast<std::uint64_t>(args.integer(3, "seed", 42, 0, kMaxSeed));

  // Build the job set, then spread arrivals as a Poisson process.
  workload::JobSet jobs =
      workload::make_real_jobset(num_jobs, Rng(seed).child("jobs"));
  Rng arrivals = Rng(seed).child("arrivals");
  SimTime t = 0.0;
  for (auto& job : jobs) {
    t += arrivals.exponential(rate);
    job.submit_time = t;
  }
  const SimTime last_arrival = t;

  std::printf("dynamic arrivals: %zu jobs, Poisson rate %.2f jobs/s "
              "(last arrival at %.0f s), 8-node cluster\n\n",
              num_jobs, rate, last_arrival);

  AsciiTable table({"Stack", "Makespan (s)", "Drain after last arrival",
                    "Mean turnaround (s)", "Core util"});
  for (const auto stack : {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
                           cluster::StackConfig::kMCCK}) {
    cluster::ExperimentConfig config;
    config.node_count = 8;
    config.stack = stack;
    config.seed = seed;

    cluster::Harness harness(config);
    harness.submit(jobs);  // future submit_times become scheduled arrivals

    // Peek mid-stream: snapshot() finalizes nothing and perturbs
    // nothing, so the final results below are bit-identical to a
    // straight run_to_completion().
    harness.run_until(last_arrival / 2.0);
    const cluster::ExperimentResult mid = harness.snapshot();
    std::printf("  %-5s at t=%5.0f s: %4zu/%zu jobs done, "
                "core util so far %s\n",
                cluster::stack_config_name(stack), harness.now(),
                mid.jobs_completed, num_jobs,
                AsciiTable::percent(mid.avg_core_utilization).c_str());

    const cluster::ExperimentResult r = harness.run_to_completion();
    table.add_row({cluster::stack_config_name(stack),
                   AsciiTable::cell(r.makespan, 0),
                   AsciiTable::cell(r.makespan - last_arrival, 0),
                   AsciiTable::cell(r.mean_turnaround, 1),
                   AsciiTable::percent(r.avg_core_utilization)});
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("Turnaround (submit -> finish) is the user-facing metric under\n"
              "continuous load; the knapsack add-on needs no changes — each\n"
              "negotiation cycle simply packs the current pending snapshot.\n");
  return 0;
}
