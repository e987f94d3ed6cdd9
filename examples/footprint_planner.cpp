// Capacity planning with the sharing-aware scheduler: given a workload
// mix and a target makespan, how many Xeon Phi nodes does each software
// stack need? (The paper's footprint-reduction analysis as a tool.)
//
//   ./footprint_planner [num_jobs] [max_nodes] [seed]
#include <cstdio>

#include "cluster/footprint.hpp"
#include "cluster/harness.hpp"
#include "common/table.hpp"
#include "example_args.hpp"
#include "workload/jobset.hpp"

int main(int argc, char** argv) {
  using namespace phisched;
  using namespace phisched::examples;

  const PositionalArgs args(argc, argv,
                            "footprint_planner [num_jobs] [max_nodes] [seed]");
  const auto num_jobs =
      static_cast<std::size_t>(args.integer(1, "num_jobs", 400, 1, kMaxJobs));
  const auto max_nodes =
      static_cast<std::size_t>(args.integer(2, "max_nodes", 8, 1, kMaxNodes));
  const auto seed =
      static_cast<std::uint64_t>(args.integer(3, "seed", 42, 0, kMaxSeed));

  const workload::JobSet jobs =
      workload::make_real_jobset(num_jobs, Rng(seed).child("jobs"));

  // The target: whatever the exclusive-allocation stack achieves on the
  // full cluster. A buyer provisioning for that SLA can then ask how much
  // smaller the cluster could be with sharing.
  cluster::ExperimentConfig base;
  base.node_count = max_nodes;
  base.seed = seed;
  base.stack = cluster::StackConfig::kMC;
  const SimTime target = [&] {
    cluster::Harness harness(base);
    harness.submit(jobs);
    return harness.run_to_completion().makespan;
  }();

  std::printf("footprint planner: %zu jobs, SLA = %.0f s "
              "(MC on %zu nodes)\n\n", num_jobs, target, max_nodes);

  AsciiTable table({"Stack", "Nodes needed", "Makespan there",
                    "Phi cards saved", "Coprocessor energy"});
  for (const auto stack : {cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
                           cluster::StackConfig::kMCCK}) {
    cluster::ExperimentConfig config = base;
    config.stack = stack;
    const auto f = cluster::find_footprint(config, jobs, target, max_nodes);
    if (f.achieved()) {
      config.node_count = f.nodes;
      cluster::Harness at(config);
      at.submit(jobs);
      const auto at_footprint = at.run_to_completion();
      table.add_row({cluster::stack_config_name(stack),
                     std::to_string(f.nodes),
                     AsciiTable::cell(f.makespan_at_footprint, 0),
                     std::to_string(max_nodes - f.nodes),
                     AsciiTable::cell(at_footprint.device_energy_mj, 1) +
                         " MJ"});
    } else {
      table.add_row(
          {cluster::stack_config_name(stack), "> max", "-", "0", "-"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Coprocessor-intensive jobs: fewer Xeon Phi cards means a\n"
              "directly smaller cluster (paper Section V-A).\n");
  return 0;
}
