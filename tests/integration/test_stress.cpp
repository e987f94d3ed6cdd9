// Randomized stress tests: invariants that must hold under ANY sequence
// of job submissions, offload requests, completions and kills.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/experiment.hpp"
#include "cosmic/middleware.hpp"
#include "workload/jobset.hpp"

namespace phisched {
namespace {

/// Drives a random mix of honest and lying jobs through one COSMIC-managed
/// device, checking safety invariants after every simulator step.
class MiddlewareStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MiddlewareStress, InvariantsHoldUnderRandomLoad) {
  Simulator sim;
  phi::DeviceConfig dc;
  dc.affinity = phi::AffinityPolicy::kManagedCompact;
  phi::Device device(sim, dc, Rng(GetParam()).child("device"));
  cosmic::NodeMiddleware mw(sim, {&device}, cosmic::MiddlewareConfig{});

  Rng rng(GetParam());
  struct JobState {
    bool admitted = false;
    bool killed = false;
    int offloads_left = 0;
    MiB declared = 0;
  };
  std::map<JobId, std::shared_ptr<JobState>> jobs;

  // A self-perpetuating offload chain per admitted job.
  std::function<void(JobId)> issue = [&](JobId id) {
    auto state = jobs.at(id);
    if (state->killed) return;
    if (state->offloads_left-- <= 0) {
      mw.finish_job(id);
      return;
    }
    // 10% of offloads lie: working set above the declaration.
    const bool lie = rng.bernoulli(0.1);
    const MiB working_set = lie ? state->declared + 500
                                : std::max<MiB>(50, state->declared - 100);
    const auto threads = static_cast<ThreadCount>(30 * rng.uniform_int(1, 8));
    mw.request_offload(id, threads, working_set,
                       rng.uniform_real(0.5, 3.0), [&issue, id] { issue(id); });
  };

  for (JobId id = 0; id < 60; ++id) {
    auto state = std::make_shared<JobState>();
    state->declared = 50 * rng.uniform_int(4, 60);  // 200..3000 MiB
    state->offloads_left = static_cast<int>(rng.uniform_int(1, 5));
    jobs.emplace(id, state);
    mw.submit_job(
        id, {},
        {.mem_per_device = state->declared, .threads = 120, .base_memory = 16},
        [state](JobId, phi::KillReason reason) {
          EXPECT_EQ(reason, phi::KillReason::kContainerLimit);
          state->killed = true;
        },
        [&issue, id, state] {
          state->admitted = true;
          issue(id);
        });
  }

  std::size_t steps = 0;
  while (sim.step()) {
    // INVARIANT 1: COSMIC never lets running offloads oversubscribe.
    ASSERT_LE(device.active_thread_demand(), 240);
    // INVARIANT 2: actual memory stays within physical limits.
    ASSERT_LE(device.memory_used(), device.usable_memory());
    ASSERT_LE(++steps, 100000u) << "stress run did not terminate";
  }

  // INVARIANT 3: every job was eventually admitted and reached a clean
  // terminal state (finished or container-killed).
  std::size_t killed = 0;
  for (const auto& [id, state] : jobs) {
    EXPECT_TRUE(state->admitted) << "job " << id << " starved";
    if (state->killed) ++killed;
  }
  EXPECT_EQ(mw.stats().container_kills, killed);
  // INVARIANT 4: the device drained completely.
  EXPECT_EQ(device.process_count(), 0u);
  EXPECT_EQ(device.memory_used(), 0);
  EXPECT_EQ(device.active_thread_demand(), 0);
  EXPECT_EQ(mw.waiting_jobs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiddlewareStress,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

/// Whole-experiment stress: random small clusters and workloads, every
/// stack; nothing may deadlock, leak reservations or lose jobs.
class ExperimentStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExperimentStress, RandomConfigurationsDrainCleanly) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    cluster::ExperimentConfig config;
    config.node_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
    config.devices.assign(static_cast<std::size_t>(rng.uniform_int(1, 2)),
                          phi::DeviceCapability{});
    config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    const std::array<cluster::StackConfig, 5> stacks{
        cluster::StackConfig::kMC, cluster::StackConfig::kMCC,
        cluster::StackConfig::kMCCK, cluster::StackConfig::kMCCFirstFit,
        cluster::StackConfig::kMCCOracle};
    config.stack = stacks[rng.index(stacks.size())];
    const auto n = static_cast<std::size_t>(rng.uniform_int(5, 60));
    const auto jobs = workload::make_real_jobset(
        n, Rng(config.seed).child("stress-jobs"));
    const auto r = cluster::run_experiment(config, jobs);
    EXPECT_EQ(r.jobs_completed, n);
    EXPECT_EQ(r.jobs_failed, 0u);
    EXPECT_GT(r.makespan, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentStress,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace phisched
