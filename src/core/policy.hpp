// Cluster-level job→coprocessor assignment policies.
//
// A policy sees only what the paper's scheduler sees: the pending jobs'
// declared (memory, thread) requirements and each coprocessor's free
// declared capacity. It never sees execution times or offload profiles.
//
// KnapsackAssignmentPolicy is the paper's contribution (Fig. 4): model
// every coprocessor as a knapsack, fill them one after another (greedy at
// the cluster level), each fill maximizing concurrency-weighted value via
// a 0-1 knapsack. FirstFit/BestFit are classical bin-packing baselines
// used by the ablation benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "knapsack/solver.hpp"
#include "knapsack/value.hpp"

namespace phisched::core {

/// One coprocessor's schedulable state, as advertised to the scheduler.
struct DeviceView {
  DeviceAddress addr;
  /// Unreserved declared memory (already net of in-flight pins).
  MiB free_memory_mib = 0;
  /// Thread budget for a newly packed set (the device's hardware thread
  /// count, or the unreserved remainder when residents are deducted).
  ThreadCount thread_budget = 0;
  /// The device's full hardware thread count; normalizes the value
  /// function (Eq. 1 divides by 240 regardless of current budget).
  ThreadCount hw_threads = 240;
  /// Memory-bandwidth headroom (MiB/s) under the card's saturation
  /// budget. Negative (default) = contention model off / unadvertised;
  /// bandwidth then never constrains placement on this device.
  double bw_budget = -1.0;
};

/// One pending job's declared requirements.
struct PendingJobView {
  JobId id = 0;
  MiB mem_req_mib = 0;  ///< per device
  ThreadCount threads_req = 0;
  /// Declared memory-bandwidth share (MiB/s); 0 = undeclared. Only
  /// consulted against devices whose bw_budget is non-negative.
  double bw_req = 0.0;
  /// Gang size; policies only see single-device jobs (the add-on places
  /// gangs in a node-level pre-pass), so this is 1 inside assign().
  int devices_req = 1;
  /// Ground-truth execution time, filled ONLY when a duration oracle is
  /// installed (ablation baselines); negative means unknown — which is
  /// the paper's operating assumption.
  SimTime expected_duration = -1.0;
};

struct Assignment {
  JobId job = 0;
  DeviceAddress device;
};

class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  /// Maps pending jobs (FIFO order) to devices. Each job appears at most
  /// once; the summed declared memory assigned to a device never exceeds
  /// its free_memory_mib.
  [[nodiscard]] virtual std::vector<Assignment> assign(
      const std::vector<PendingJobView>& pending,
      const std::vector<DeviceView>& devices) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

struct KnapsackPolicyConfig {
  knapsack::SolverKind solver = knapsack::SolverKind::kDp1D;
  knapsack::ValueFunction value_function =
      knapsack::ValueFunction::kPaperQuadratic;
  MiB quantum_mib = 50;
  /// FIFO prefix of the pending queue offered to each knapsack; bounds
  /// solve cost on very deep queues.
  std::size_t max_candidates = 256;
};

/// The paper's greedy knapsack scheduler (Fig. 4).
[[nodiscard]] std::unique_ptr<AssignmentPolicy> make_knapsack_policy(
    KnapsackPolicyConfig config);

/// FIFO jobs, first device with room (no thread awareness).
[[nodiscard]] std::unique_ptr<AssignmentPolicy> make_first_fit_policy();

/// FIFO jobs, device whose free memory is tightest after the fit.
[[nodiscard]] std::unique_ptr<AssignmentPolicy> make_best_fit_policy();

/// Longest-processing-time oracle: sorts pending jobs by ground-truth
/// duration (longest first) and assigns each to the memory-fitting device
/// with the least total assigned duration. NOT realizable in production —
/// the paper explicitly assumes execution times are unknown — but it
/// bounds how much knowing them could buy (Section IV-C: "Knowledge of
/// these could result in an optimal makespan, but is not realistic").
/// Jobs without a duration are placed last, first-fit.
[[nodiscard]] std::unique_ptr<AssignmentPolicy> make_oracle_lpt_policy();

}  // namespace phisched::core
