// Device-topology ablation (ours): the paper's cluster has 1 Xeon Phi per
// node, but the middleware supports several. With the total card count
// fixed at 8, does concentrating cards in fewer nodes help or hurt?
//
// Expectation: for MCCK, topology is nearly neutral (the knapsack packs
// per device); for MCC, fewer-but-fatter nodes help a little because the
// node-local COSMIC queue can backfill across more local cards.
#include "bench_util.hpp"

int main() {
  using namespace phisched;
  using namespace phisched::bench;

  print_header("Topology ablation: 8 Xeon Phis arranged as N nodes x D cards",
               "ours (the paper's testbed is 8 x 1)");

  const auto jobs = workload::make_real_jobset(1000, Rng(42).child("jobs"));

  AsciiTable table({"Topology", "MCC makespan", "MCCK makespan",
                    "MCCK vs MCC"});
  struct Shape {
    std::size_t nodes;
    int devices;
  };
  for (const Shape shape : {Shape{8, 1}, Shape{4, 2}, Shape{2, 4}}) {
    cluster::ExperimentConfig config;
    config.node_count = shape.nodes;
    config.devices.assign(static_cast<std::size_t>(shape.devices),
                          phi::DeviceCapability{});
    // Keep host slots proportional to node fatness.
    config.node_hw.slots = 16 * shape.devices;

    config.stack = cluster::StackConfig::kMCC;
    const double mcc = run_stack(config, jobs).makespan;
    config.stack = cluster::StackConfig::kMCCK;
    const double mcck = run_stack(config, jobs).makespan;

    table.add_row({std::to_string(shape.nodes) + " nodes x " +
                       std::to_string(shape.devices) + " cards",
                   AsciiTable::cell(mcc, 0), AsciiTable::cell(mcck, 0),
                   pct(1.0 - mcck / mcc)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
