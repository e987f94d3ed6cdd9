// Gang jobs through the full stack: Condor matching (RequestPhiDevices),
// exclusive multi-device claims, and the add-on's node-level gang pins.
#include <gtest/gtest.h>

#include "cluster/experiment.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

using workload::OffloadProfile;
using workload::Segment;

/// A job that drives TWO coprocessors with overlapping full-width
/// offloads (async launches joined by a barrier, the COI idiom).
workload::JobSpec dual_device_job(JobId id) {
  workload::JobSpec job;
  job.id = id;
  job.mem_req_mib = 1000;  // per device
  job.threads_req = 240;
  job.devices_req = 2;
  job.profile = OffloadProfile({
      Segment::offload_async(4.0, 240, 800, /*device=*/0),
      Segment::offload_async(4.0, 240, 800, /*device=*/1),
      Segment::sync(),
      Segment::host(2.0),
      Segment::offload(4.0, 240, 800, /*device=*/0),
  });
  return job;
}

workload::JobSpec single_device_job(JobId id) {
  workload::JobSpec job;
  job.id = id;
  job.mem_req_mib = 1000;
  job.threads_req = 60;
  job.profile = OffloadProfile({Segment::offload(3.0, 60, 800)});
  return job;
}

class GangStacks : public ::testing::TestWithParam<StackConfig> {};

TEST_P(GangStacks, MixedGangAndSingleJobsComplete) {
  workload::JobSet jobs;
  for (JobId id = 0; id < 4; ++id) jobs.push_back(dual_device_job(id));
  for (JobId id = 4; id < 12; ++id) jobs.push_back(single_device_job(id));

  ExperimentConfig config;
  config.node_count = 2;
  config.devices.assign(2, phi::DeviceCapability{});
  config.stack = GetParam();
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.jobs_completed, 12u);
  EXPECT_EQ(r.jobs_failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, GangStacks,
    ::testing::Values(StackConfig::kMC, StackConfig::kMCC, StackConfig::kMCCK),
    [](const auto& suite_info) { return stack_config_name(suite_info.param); });

TEST(GangExperiment, RejectedWhenNodesHaveTooFewDevices) {
  workload::JobSet jobs{dual_device_job(0)};
  ExperimentConfig config;
  config.node_count = 2;
  config.devices.assign(1, phi::DeviceCapability{});
  EXPECT_THROW((void)run_experiment(config, jobs), std::invalid_argument);
}

TEST(GangExperiment, ExclusiveModeRunsGangsOneAtATimePerNodePair) {
  // 2 devices per node, MC: each gang job owns both cards of its node.
  workload::JobSet jobs;
  for (JobId id = 0; id < 4; ++id) jobs.push_back(dual_device_job(id));
  ExperimentConfig config;
  config.node_count = 1;
  config.devices.assign(2, phi::DeviceCapability{});
  config.stack = StackConfig::kMC;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.jobs_completed, 4u);
  // Serial lower bound: each job runs >= 10 s alone; 4 jobs on one node.
  EXPECT_GE(r.makespan, 4 * 10.0);
}

TEST(GangExperiment, GangOffloadsOverlapAcrossDevices) {
  // One gang job alone: its two concurrent 240-thread offloads overlap on
  // different cards, so the makespan is ~(4 + 2 + 4) + overheads, not
  // 4+4+2+4.
  workload::JobSet jobs{dual_device_job(0)};
  ExperimentConfig config;
  config.node_count = 1;
  config.devices.assign(2, phi::DeviceCapability{});
  config.stack = StackConfig::kMCC;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.jobs_completed, 1u);
  EXPECT_LT(r.makespan, 11.0);  // 0.5 dispatch + 4 || 4 + 2 + 4 = 10.5
}

TEST(GangExperiment, KnapsackStackPinsGangsByNode) {
  workload::JobSet jobs;
  for (JobId id = 0; id < 3; ++id) jobs.push_back(dual_device_job(id));
  ExperimentConfig config;
  config.node_count = 3;
  config.devices.assign(2, phi::DeviceCapability{});
  config.stack = StackConfig::kMCCK;
  const ExperimentResult r = run_experiment(config, jobs);
  EXPECT_EQ(r.jobs_completed, 3u);
  EXPECT_EQ(r.addon_pins, 3u);
}

}  // namespace
}  // namespace phisched::cluster
