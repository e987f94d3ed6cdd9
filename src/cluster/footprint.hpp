// Coprocessor-footprint analysis: the smallest cluster that still meets a
// target makespan (paper Tables II/III and Fig. 9).
#pragma once

#include <vector>

#include "cluster/experiment.hpp"

namespace phisched::cluster {

struct FootprintResult {
  /// Smallest node count whose makespan is <= target; 0 when even
  /// max_nodes missed the target.
  std::size_t nodes = 0;
  SimTime makespan_at_footprint = 0.0;
  /// (node count, makespan) for every size probed, ascending.
  std::vector<std::pair<std::size_t, SimTime>> sweep;

  [[nodiscard]] bool achieved() const { return nodes > 0; }
};

/// Sweeps cluster sizes 1..max_nodes (config.node_count is overridden)
/// and reports the first size meeting `target_makespan`. The full sweep
/// is recorded so callers can also plot makespan vs cluster size.
[[nodiscard]] FootprintResult find_footprint(ExperimentConfig config,
                                             const workload::JobSet& jobs,
                                             SimTime target_makespan,
                                             std::size_t max_nodes);

/// Makespans for an explicit list of cluster sizes (Fig. 9 series), in
/// the order of `sizes`. The independent simulations run through
/// parallel_for on at most `max_threads` threads (0 = hardware
/// concurrency, 1 = serial in the caller); each is seeded from its
/// config alone, so every thread count gives the same results.
[[nodiscard]] std::vector<std::pair<std::size_t, SimTime>> makespan_by_size(
    const ExperimentConfig& config, const workload::JobSet& jobs,
    const std::vector<std::size_t>& sizes, unsigned max_threads = 0);

}  // namespace phisched::cluster
