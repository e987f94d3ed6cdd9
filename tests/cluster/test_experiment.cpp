#include "cluster/experiment.hpp"

#include <gtest/gtest.h>

#include "cluster/footprint.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

workload::JobSet small_jobset(std::size_t n, std::uint64_t seed = 9) {
  return workload::make_real_jobset(n, Rng(seed).child("jobs"));
}

TEST(Experiment, CompletesAllJobs) {
  ExperimentConfig config;
  config.node_count = 2;
  const auto jobs = small_jobset(20);
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.jobs_completed, 20u);
  EXPECT_EQ(r.jobs_failed, 0u);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.negotiation_cycles, 0u);
  EXPECT_GT(r.offloads_started, 0u);
  EXPECT_EQ(r.per_device_utilization.size(), 2u);
  EXPECT_GT(r.mean_turnaround, 0.0);
}

TEST(Experiment, StackConfigNames) {
  EXPECT_STREQ(stack_config_name(StackConfig::kMC), "MC");
  EXPECT_STREQ(stack_config_name(StackConfig::kMCC), "MCC");
  EXPECT_STREQ(stack_config_name(StackConfig::kMCCK), "MCCK");
  EXPECT_STREQ(stack_config_name(StackConfig::kMCCFirstFit), "MCC+FirstFit");
  EXPECT_STREQ(stack_config_name(StackConfig::kMCCBestFit), "MCC+BestFit");
}

TEST(Experiment, AllStacksCompleteTheSameJobs) {
  const auto jobs = small_jobset(30);
  for (const auto stack :
       {StackConfig::kMC, StackConfig::kMCC, StackConfig::kMCCK,
        StackConfig::kMCCFirstFit, StackConfig::kMCCBestFit}) {
    ExperimentConfig config;
    config.node_count = 2;
    config.stack = stack;
    const ExperimentResult r = run_experiment(config, jobs);
    EXPECT_EQ(r.jobs_completed, 30u) << stack_config_name(stack);
    EXPECT_EQ(r.oom_kills, 0u) << stack_config_name(stack);
    EXPECT_EQ(r.container_kills, 0u) << stack_config_name(stack);
  }
}

TEST(Experiment, SharingBeatsExclusive) {
  const auto jobs = small_jobset(60);
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMC;
  const SimTime mc = run_experiment(config, jobs).makespan;
  config.stack = StackConfig::kMCC;
  const SimTime mcc = run_experiment(config, jobs).makespan;
  config.stack = StackConfig::kMCCK;
  const SimTime mcck = run_experiment(config, jobs).makespan;
  EXPECT_LT(mcc, mc);
  EXPECT_LT(mcck, mc);
}

TEST(Experiment, McRunsOneJobPerDeviceAndNeverQueuesOffloads) {
  const auto jobs = small_jobset(20);
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMC;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.offloads_queued, 0u);
  EXPECT_EQ(r.addon_pins, 0u);
}

TEST(Experiment, McckPinsEveryJob) {
  const auto jobs = small_jobset(25);
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = StackConfig::kMCCK;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.addon_pins, 25u);
}

TEST(Experiment, MoreNodesShortenMakespan) {
  const auto jobs = small_jobset(60);
  ExperimentConfig config;
  config.stack = StackConfig::kMCCK;
  config.node_count = 2;
  const SimTime two = run_experiment(config, jobs).makespan;
  config.node_count = 6;
  const SimTime six = run_experiment(config, jobs).makespan;
  EXPECT_LT(six, two);
}

TEST(Experiment, UtilizationIsAFraction) {
  const auto jobs = small_jobset(30);
  ExperimentConfig config;
  config.node_count = 2;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_GT(r.avg_core_utilization, 0.0);
  EXPECT_LE(r.avg_core_utilization, 1.0);
  for (double u : r.per_device_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Experiment, RejectsOversizedJob) {
  workload::JobSet jobs;
  workload::JobSpec big;
  big.id = 0;
  big.mem_req_mib = 100000;  // larger than the card
  big.threads_req = 60;
  big.profile = workload::OffloadProfile(
      {workload::Segment::offload(1.0, 60, 100)});
  jobs.push_back(big);
  ExperimentConfig config;
  EXPECT_THROW((void)run_experiment(config, jobs), std::invalid_argument);
}

TEST(Experiment, RejectsBadLatencyConfig) {
  ExperimentConfig config;
  config.dispatch_latency = config.negotiation_interval + 1.0;
  EXPECT_THROW((void)run_experiment(config, small_jobset(2)),
               std::invalid_argument);
}

TEST(Experiment, MultiDeviceNodesWork) {
  const auto jobs = small_jobset(30);
  ExperimentConfig config;
  config.node_count = 1;
  config.devices.assign(2, phi::DeviceCapability{});
  config.stack = StackConfig::kMCCK;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.jobs_completed, 30u);
  EXPECT_EQ(r.per_device_utilization.size(), 2u);
}

TEST(Footprint, SweepFindsSmallestCluster) {
  const auto jobs = small_jobset(40);
  ExperimentConfig config;
  config.stack = StackConfig::kMCCK;
  config.node_count = 4;
  const SimTime target = run_experiment(config, jobs).makespan;
  const FootprintResult f = find_footprint(config, jobs, target, 4);
  EXPECT_TRUE(f.achieved());
  EXPECT_LE(f.nodes, 4u);
  EXPECT_LE(f.makespan_at_footprint, target);
  // Every probed size below the footprint missed the target.
  for (const auto& [n, makespan] : f.sweep) {
    if (n < f.nodes) {
      EXPECT_GT(makespan, target);
    }
  }
}

TEST(Footprint, UnachievableTargetReportsFailure) {
  const auto jobs = small_jobset(20);
  ExperimentConfig config;
  const FootprintResult f = find_footprint(config, jobs, 1.0, 2);
  EXPECT_FALSE(f.achieved());
  EXPECT_EQ(f.sweep.size(), 2u);
}

TEST(Footprint, MakespanBySizeIsOrdered) {
  const auto jobs = small_jobset(40);
  ExperimentConfig config;
  config.stack = StackConfig::kMCC;
  const auto series = makespan_by_size(config, jobs, {1, 2, 4});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_GT(series[0].second, series[2].second);
}

}  // namespace
}  // namespace phisched::cluster
