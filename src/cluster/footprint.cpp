#include "cluster/footprint.hpp"

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace phisched::cluster {

FootprintResult find_footprint(ExperimentConfig config,
                               const workload::JobSet& jobs,
                               SimTime target_makespan, std::size_t max_nodes) {
  PHISCHED_REQUIRE(max_nodes > 0, "find_footprint: max_nodes must be positive");
  FootprintResult result;
  for (std::size_t n = 1; n <= max_nodes; ++n) {
    config.node_count = n;
    const ExperimentResult r = run_experiment(config, jobs);
    result.sweep.emplace_back(n, r.makespan);
    if (r.makespan <= target_makespan) {
      result.nodes = n;
      result.makespan_at_footprint = r.makespan;
      return result;
    }
  }
  return result;
}

std::vector<std::pair<std::size_t, SimTime>> makespan_by_size(
    const ExperimentConfig& config, const workload::JobSet& jobs,
    const std::vector<std::size_t>& sizes, unsigned max_threads) {
  // Each simulation owns all its state (simulator, RNGs, cluster), and
  // its result lands at its input index, so the schedule changes nothing.
  std::vector<std::pair<std::size_t, SimTime>> out(sizes.size());
  parallel_for(
      sizes.size(),
      [&](std::size_t i) {
        ExperimentConfig local = config;
        local.node_count = sizes[i];
        out[i] = {sizes[i], run_experiment(local, jobs).makespan};
      },
      max_threads);
  return out;
}

}  // namespace phisched::cluster
