// Quickstart: run the paper's three cluster configurations (MC, MCC,
// MCCK) on a job set of real Xeon Phi workloads and compare makespan and
// core utilization.
//
//   ./quickstart [num_jobs] [num_nodes] [seed]
#include <cstdio>

#include "cluster/harness.hpp"
#include "common/table.hpp"
#include "example_args.hpp"
#include "workload/jobset.hpp"

int main(int argc, char** argv) {
  using namespace phisched;
  using namespace phisched::examples;

  const PositionalArgs args(argc, argv,
                            "quickstart [num_jobs] [num_nodes] [seed]");
  const auto num_jobs =
      static_cast<std::size_t>(args.integer(1, "num_jobs", 200, 1, kMaxJobs));
  const auto num_nodes =
      static_cast<std::size_t>(args.integer(2, "num_nodes", 8, 1, kMaxNodes));
  const auto seed =
      static_cast<std::uint64_t>(args.integer(3, "seed", 42, 0, kMaxSeed));

  // 1. Generate jobs from the paper's Table I workload templates. Each
  //    job declares only its max Phi memory and thread requirements.
  const workload::JobSet jobs =
      workload::make_real_jobset(num_jobs, Rng(seed).child("jobs"));

  std::printf("quickstart: %zu Table-I jobs on a %zu-node cluster "
              "(1 Xeon Phi per node)\n\n",
              num_jobs, num_nodes);

  // 2. Run each software stack on an identical cluster + job set.
  AsciiTable table({"Configuration", "Makespan (s)", "vs MC", "Core util",
                    "Offloads queued", "Failed"});
  double baseline = 0.0;
  for (const auto stack : {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
                           cluster::StackConfig::kMCCK}) {
    cluster::ExperimentConfig config;
    config.node_count = num_nodes;
    config.stack = stack;
    config.seed = seed;
    // Build the stack, enqueue the workload, drain the event loop.
    cluster::Harness harness(config);
    harness.submit(jobs);
    const cluster::ExperimentResult r = harness.run_to_completion();

    if (stack == cluster::StackConfig::kMC) baseline = r.makespan;
    const double reduction = 1.0 - r.makespan / baseline;
    table.add_row({cluster::stack_config_name(stack),
                   AsciiTable::cell(r.makespan, 0),
                   stack == cluster::StackConfig::kMC
                       ? "-"
                       : AsciiTable::percent(reduction),
                   AsciiTable::percent(r.avg_core_utilization),
                   AsciiTable::cell(static_cast<std::int64_t>(r.offloads_queued)),
                   AsciiTable::cell(static_cast<std::int64_t>(r.jobs_failed))});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("MCCK packs jobs per coprocessor with a 0-1 knapsack "
              "(value = 1 - (t/240)^2), maximizing concurrency without\n"
              "oversubscribing memory or threads; COSMIC keeps node-level "
              "sharing safe.\n");
  return 0;
}
