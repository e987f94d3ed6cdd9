// Extending the scheduler: plug a custom cluster-level AssignmentPolicy
// into the full stack through ExperimentConfig::policy_factory.
//
// The example policy is "balanced-count": it assigns pending jobs
// round-robin to the device hosting the fewest assigned jobs (ignoring
// thread shapes entirely), and we race it against the paper's knapsack
// on the same workload. Writing a policy takes ~30 lines: implement
// assign() over (pending jobs, device views) and never exceed a device's
// free memory.
//
//   ./custom_policy [num_jobs]
#include <algorithm>
#include <cstdio>
#include <map>

#include "cluster/harness.hpp"
#include "cluster/report.hpp"
#include "example_args.hpp"
#include "workload/jobset.hpp"

using namespace phisched;

namespace {

class BalancedCountPolicy final : public core::AssignmentPolicy {
 public:
  std::vector<core::Assignment> assign(
      const std::vector<core::PendingJobView>& pending,
      const std::vector<core::DeviceView>& devices) override {
    std::vector<MiB> free(devices.size());
    std::vector<int> count(devices.size(), 0);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      free[d] = devices[d].free_memory_mib;
    }
    std::vector<core::Assignment> out;
    for (const core::PendingJobView& job : pending) {
      // Fewest-jobs-first among devices with room.
      std::ptrdiff_t best = -1;
      for (std::size_t d = 0; d < devices.size(); ++d) {
        if (free[d] < job.mem_req_mib) continue;
        if (best < 0 || count[static_cast<std::size_t>(best)] > count[d]) {
          best = static_cast<std::ptrdiff_t>(d);
        }
      }
      if (best < 0) continue;
      const auto b = static_cast<std::size_t>(best);
      free[b] -= job.mem_req_mib;
      count[b] += 1;
      out.push_back(core::Assignment{job.id, devices[b].addr});
    }
    return out;
  }

  std::string name() const override { return "balanced-count"; }
};

}  // namespace

int main(int argc, char** argv) {
  const examples::PositionalArgs args(argc, argv, "custom_policy [num_jobs]");
  const auto num_jobs = static_cast<std::size_t>(
      args.integer(1, "num_jobs", 400, 1, examples::kMaxJobs));
  const auto jobs = workload::make_real_jobset(num_jobs, Rng(42).child("jobs"));

  cluster::ExperimentConfig config;
  config.node_count = 8;

  const auto race = [&jobs](const cluster::ExperimentConfig& cfg) {
    cluster::Harness harness(cfg);
    harness.submit(jobs);
    return harness.run_to_completion();
  };

  std::vector<cluster::NamedResult> rows;

  config.stack = cluster::StackConfig::kMC;
  rows.push_back({"MC (baseline)", race(config)});

  config.stack = cluster::StackConfig::kMCCK;
  config.policy_factory = [] { return std::make_unique<BalancedCountPolicy>(); };
  rows.push_back({"custom: balanced-count", race(config)});

  config.policy_factory = nullptr;  // back to the paper's knapsack
  rows.push_back({"knapsack (paper)", race(config)});

  std::printf("custom cluster policy vs the paper's knapsack "
              "(%zu Table I jobs, 8 nodes)\n\n", num_jobs);
  std::printf("%s\n", cluster::comparison_table(rows).to_string().c_str());
  std::printf(
      "A custom policy only needs core::AssignmentPolicy::assign(); the\n"
      "add-on handles Condor integration (qedit pinning, in-flight\n"
      "accounting) and COSMIC keeps whatever it decides safe.\n");
  return 0;
}
