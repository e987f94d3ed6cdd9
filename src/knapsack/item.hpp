// Knapsack problem instance types (paper Section IV-C).
//
// Each Xeon Phi coprocessor is a knapsack whose capacity is its (free)
// physical memory; items are pending jobs weighted by their declared memory
// requirement and valued so that packing prefers many low-thread jobs.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace phisched::knapsack {

struct Item {
  /// Declared Phi memory requirement — the knapsack weight.
  MiB weight_mib = 0;
  /// Declared Phi thread requirement — constrains feasibility.
  ThreadCount threads = 0;
  /// Value from the chosen value function (see value.hpp).
  double value = 0.0;
  /// Caller-defined identifier (index into the pending-job list).
  std::size_t tag = 0;
};

struct Problem {
  std::vector<Item> items;
  /// Knapsack capacity: free device memory.
  MiB capacity_mib = 0;
  /// Device hardware-thread budget for the packed set.
  ThreadCount thread_capacity = 240;
  /// Memory quantization grid for the DP solvers.
  MiB quantum_mib = 50;
};

struct Solution {
  /// Indices into Problem::items (NOT tags), ascending.
  std::vector<std::size_t> picks;
  double value = 0.0;
  MiB weight_mib = 0;
  ThreadCount threads = 0;
  /// DP cells the solve filled (its work count; 0 for greedy and bnb).
  /// Not telemetry: tests pin a solver's cost by it instead of a clock.
  std::size_t cells = 0;

  [[nodiscard]] bool empty() const { return picks.empty(); }
};

/// Recomputes value/weight/threads of `picks` against the problem; used to
/// validate solver output.
[[nodiscard]] Solution materialize(const Problem& problem,
                                   std::vector<std::size_t> picks);

/// A solution is feasible when its quantized weights fit the capacity and
/// its thread total fits the thread budget.
[[nodiscard]] bool feasible(const Problem& problem, const Solution& solution);

}  // namespace phisched::knapsack
