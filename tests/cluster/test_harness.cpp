// Harness / one-shot equivalence: a step-driven cluster::Harness run —
// including interleaved, non-perturbing mid-run snapshot() calls — must
// produce an ExperimentResult and telemetry snapshot bit-identical to
// run_experiment() for every StackConfig. Every comparison below is
// exact (EXPECT_EQ on doubles), not approximate: the harness is the
// same machine, only driven differently.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/harness.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

[[nodiscard]] ExperimentConfig small_cluster(StackConfig stack,
                                             std::uint64_t seed) {
  ExperimentConfig config;
  config.node_count = 2;
  config.stack = stack;
  config.seed = seed;
  config.telemetry = true;
  config.sample_interval = 10.0;
  return config;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_core_utilization, b.avg_core_utilization);
  EXPECT_EQ(a.per_device_utilization, b.per_device_utilization);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_failed, b.jobs_failed);
  EXPECT_EQ(a.job_retries, b.job_retries);
  EXPECT_EQ(a.device_energy_mj, b.device_energy_mj);
  EXPECT_EQ(a.negotiation_cycles, b.negotiation_cycles);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.offloads_started, b.offloads_started);
  EXPECT_EQ(a.offloads_queued, b.offloads_queued);
  EXPECT_EQ(a.oom_kills, b.oom_kills);
  EXPECT_EQ(a.container_kills, b.container_kills);
  EXPECT_EQ(a.addon_pins, b.addon_pins);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.mean_turnaround, b.mean_turnaround);
  EXPECT_EQ(a.turnaround.count(), b.turnaround.count());
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.wait_time.count(), b.wait_time.count());
  EXPECT_EQ(a.wait_time.mean(), b.wait_time.mean());
  EXPECT_EQ(a.utilization_series, b.utilization_series);
  ASSERT_EQ(a.telemetry != nullptr, b.telemetry != nullptr);
  if (a.telemetry != nullptr) {
    EXPECT_TRUE(*a.telemetry == *b.telemetry)
        << "telemetry snapshots diverged";
  }
}

using StackSeed = std::tuple<StackConfig, std::uint64_t>;

class HarnessEquivalence : public ::testing::TestWithParam<StackSeed> {};

TEST_P(HarnessEquivalence, StepDrivenMatchesOneShotBitIdentically) {
  const auto [stack, seed] = GetParam();
  const ExperimentConfig config = small_cluster(stack, seed);
  const auto jobs = workload::make_real_jobset(40, Rng(seed).child("jobs"));

  const ExperimentResult one_shot = run_experiment(config, jobs);

  Harness harness(config);
  harness.submit(jobs);
  // Drive in coarse slices with a snapshot in every slice; snapshots
  // must not perturb anything downstream.
  std::size_t slices = 0;
  while (!harness.complete()) {
    harness.run_for(200.0);
    const ExperimentResult mid = harness.snapshot();
    EXPECT_LE(mid.jobs_completed + mid.jobs_failed, jobs.size());
    ASSERT_LT(++slices, 10000u) << "harness failed to make progress";
  }
  const ExperimentResult stepped = harness.run_to_completion();

  expect_identical(one_shot, stepped);
}

INSTANTIATE_TEST_SUITE_P(
    AllStacksThreeSeeds, HarnessEquivalence,
    ::testing::Combine(
        ::testing::Values(StackConfig::kMC, StackConfig::kMCC,
                          StackConfig::kMCCK, StackConfig::kMCCFirstFit,
                          StackConfig::kMCCBestFit, StackConfig::kMCCOracle),
        ::testing::Values(11u, 42u, 1234u)),
    [](const ::testing::TestParamInfo<StackSeed>& param) {
      std::string name;
      switch (std::get<0>(param.param)) {
        case StackConfig::kMC: name = "MC"; break;
        case StackConfig::kMCC: name = "MCC"; break;
        case StackConfig::kMCCK: name = "MCCK"; break;
        case StackConfig::kMCCFirstFit: name = "MCCFirstFit"; break;
        case StackConfig::kMCCBestFit: name = "MCCBestFit"; break;
        case StackConfig::kMCCOracle: name = "MCCOracle"; break;
      }
      return name + "_seed" + std::to_string(std::get<1>(param.param));
    });

// Switch-off contract: the pcie_switch field must be completely inert
// while disabled — every output (exact doubles + telemetry operator==)
// identical to a default config, for every stack and seed.
class SwitchOffEquivalence : public ::testing::TestWithParam<StackSeed> {};

TEST_P(SwitchOffEquivalence, DisabledSwitchLeavesEveryOutputBitIdentical) {
  const auto [stack, seed] = GetParam();
  const ExperimentConfig config = small_cluster(stack, seed);
  const auto jobs = workload::make_real_jobset(40, Rng(seed).child("jobs"));

  ExperimentConfig with_field = config;
  // Knobs under a disabled switch must not leak into the run.
  with_field.pcie_switch.bandwidth_mib_s = 123.0;
  ASSERT_FALSE(with_field.pcie_switch.enabled);

  expect_identical(run_experiment(config, jobs),
                   run_experiment(with_field, jobs));
}

INSTANTIATE_TEST_SUITE_P(
    AllStacksThreeSeeds, SwitchOffEquivalence,
    ::testing::Combine(
        ::testing::Values(StackConfig::kMC, StackConfig::kMCC,
                          StackConfig::kMCCK, StackConfig::kMCCFirstFit,
                          StackConfig::kMCCBestFit, StackConfig::kMCCOracle),
        ::testing::Values(11u, 42u, 1234u)),
    [](const ::testing::TestParamInfo<StackSeed>& param) {
      std::string name;
      switch (std::get<0>(param.param)) {
        case StackConfig::kMC: name = "MC"; break;
        case StackConfig::kMCC: name = "MCC"; break;
        case StackConfig::kMCCK: name = "MCCK"; break;
        case StackConfig::kMCCFirstFit: name = "MCCFirstFit"; break;
        case StackConfig::kMCCBestFit: name = "MCCBestFit"; break;
        case StackConfig::kMCCOracle: name = "MCCOracle"; break;
      }
      return name + "_seed" + std::to_string(std::get<1>(param.param));
    });

TEST(Harness, SnapshotUnderActiveTransfersWithSwitchOff) {
  // Link contention on, switch off: mid-run snapshots taken while
  // transfers are in flight must not perturb the stepped run.
  ExperimentConfig config = small_cluster(StackConfig::kMCCK, 21);
  config.pcie.contention = true;
  config.pcie.latency_s = 1e-4;
  const auto jobs = workload::make_real_jobset(40, Rng(21).child("jobs"));

  const ExperimentResult one_shot = run_experiment(config, jobs);

  Harness harness(config);
  harness.submit(jobs);
  while (!harness.complete()) {
    // Short slices so many snapshots land mid-transfer.
    harness.run_for(50.0);
    (void)harness.snapshot();
  }
  expect_identical(one_shot, harness.run_to_completion());
}

TEST(Harness, SnapshotUnderActiveTransfersWithSwitchOn) {
  // The hierarchical model itself must be snapshot-safe and
  // deterministic: stepped + snapshots == one-shot, switch enabled.
  ExperimentConfig config = small_cluster(StackConfig::kMCCK, 23);
  config.devices.assign(2, phi::DeviceCapability{});
  config.pcie.contention = true;
  config.pcie.latency_s = 1e-4;
  config.pcie_switch.enabled = true;
  config.pcie_switch.bandwidth_mib_s = config.pcie.bandwidth_mib_s * 1.5;
  const auto jobs = workload::make_real_jobset(40, Rng(23).child("jobs"));

  const ExperimentResult one_shot = run_experiment(config, jobs);

  Harness harness(config);
  harness.submit(jobs);
  while (!harness.complete()) {
    harness.run_for(50.0);
    (void)harness.snapshot();
  }
  expect_identical(one_shot, harness.run_to_completion());
}

TEST(Harness, NodeCountMustFitANodeId) {
  // 2^32 nodes used to cast to NodeId -1: no node was built, and the
  // constructor then read the first node of an empty vector. This count
  // builds no node before the check either, so the test starts no work.
  ExperimentConfig config = small_cluster(StackConfig::kMCC, 1);
  config.node_count = std::size_t{1} << 32;
  EXPECT_THROW(Harness{config}, std::invalid_argument);
}

TEST(Harness, SwitchRequiresLinkContention) {
  ExperimentConfig config = small_cluster(StackConfig::kMCC, 1);
  config.pcie_switch.enabled = true;  // without pcie.contention
  EXPECT_THROW(Harness{config}, std::invalid_argument);
}

TEST(Harness, DynamicArrivalsEquivalence) {
  // Future submit_times route through scheduled-arrival events; the
  // step-driven path must agree with the one-shot path there too.
  ExperimentConfig config = small_cluster(StackConfig::kMCCK, 7);
  auto jobs = workload::make_real_jobset(30, Rng(7).child("jobs"));
  Rng arrivals = Rng(7).child("arrivals");
  SimTime t = 0.0;
  for (auto& job : jobs) {
    t += arrivals.exponential(1.0);
    job.submit_time = t;
  }

  const ExperimentResult one_shot = run_experiment(config, jobs);

  Harness harness(config);
  harness.submit(jobs);
  while (!harness.complete()) {
    harness.run_for(97.0);
    (void)harness.snapshot();
  }
  expect_identical(one_shot, harness.run_to_completion());
}

TEST(Harness, SnapshotWhileArrivalsStillPending) {
  // A snapshot taken while some submitted jobs are still future arrival
  // events (unknown to the schedd) must work and must not perturb the
  // final result.
  ExperimentConfig config = small_cluster(StackConfig::kMCC, 13);
  auto jobs = workload::make_real_jobset(20, Rng(13).child("jobs"));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = static_cast<SimTime>(i) * 50.0;
  }
  const ExperimentResult one_shot = run_experiment(config, jobs);

  Harness harness(config);
  harness.submit(jobs);
  harness.run_until(120.0);  // only the first few arrivals have landed
  const ExperimentResult mid = harness.snapshot();
  EXPECT_LT(mid.jobs_completed + mid.jobs_failed, jobs.size());
  expect_identical(one_shot, harness.run_to_completion());
}

TEST(Harness, SnapshotBeforeAnyDrivingIsEmptyAndHarmless) {
  const ExperimentConfig config = small_cluster(StackConfig::kMCC, 5);
  const auto jobs = workload::make_real_jobset(20, Rng(5).child("jobs"));
  const ExperimentResult one_shot = run_experiment(config, jobs);

  Harness harness(config);
  const ExperimentResult empty = harness.snapshot();
  EXPECT_EQ(empty.jobs_completed, 0u);
  EXPECT_EQ(empty.events_processed, 0u);
  harness.submit(jobs);
  (void)harness.snapshot();
  expect_identical(one_shot, harness.run_to_completion());
}

TEST(Harness, StepGranularityDoesNotMatter) {
  const ExperimentConfig config = small_cluster(StackConfig::kMCCK, 42);
  const auto jobs = workload::make_real_jobset(25, Rng(42).child("jobs"));

  Harness by_event(config);
  by_event.submit(jobs);
  while (by_event.step()) {
  }
  Harness one_go(config);
  one_go.submit(jobs);
  expect_identical(by_event.result(), one_go.run_to_completion());
}

TEST(Harness, ResultIsCachedAndRepeatable) {
  const ExperimentConfig config = small_cluster(StackConfig::kMCCK, 3);
  const auto jobs = workload::make_real_jobset(15, Rng(3).child("jobs"));
  Harness harness(config);
  harness.submit(jobs);
  const ExperimentResult first = harness.run_to_completion();
  expect_identical(first, harness.result());
  expect_identical(first, harness.result());
}

TEST(Harness, ResultBeforeCompletionThrows) {
  Harness harness(small_cluster(StackConfig::kMCC, 1));
  harness.submit(workload::make_real_jobset(5, Rng(1).child("jobs")));
  harness.run_until(1.0);
  EXPECT_FALSE(harness.complete());
  EXPECT_THROW((void)harness.result(), std::exception);
}

// With nothing submitted, no terminal transition stops the periodic
// negotiator and sampler; run_to_completion() used to step idle cycles
// until the simulator's runaway guard threw, minutes later.
TEST(Harness, RunToCompletionWithNothingSubmittedReturns) {
  for (const StackConfig stack :
       {StackConfig::kMC, StackConfig::kMCC, StackConfig::kMCCK}) {
    SCOPED_TRACE(stack_config_name(stack));
    Harness harness(small_cluster(stack, 1));
    const ExperimentResult r = harness.run_to_completion();
    EXPECT_EQ(r.jobs_completed, 0u);
    EXPECT_EQ(r.jobs_failed, 0u);
    EXPECT_EQ(r.makespan, 0.0);
    EXPECT_LE(r.events_processed, 1u);  // the first negotiation cycle
    EXPECT_EQ(run_experiment(small_cluster(stack, 1), {}).jobs_completed,
              0u);
  }
}

TEST(Harness, DuplicateJobIdIsRejected) {
  Harness harness(small_cluster(StackConfig::kMCC, 1));
  const auto jobs = workload::make_real_jobset(3, Rng(1).child("jobs"));
  harness.submit(jobs);
  EXPECT_THROW(harness.submit(jobs[0]), std::exception);
}

TEST(Harness, SubmitAfterDrainResumesTheRun) {
  const std::uint64_t seed = 9;
  ExperimentConfig config = small_cluster(StackConfig::kMCCK, seed);
  auto jobs = workload::make_real_jobset(12, Rng(seed).child("jobs"));
  Harness harness(config);
  harness.submit(jobs);
  const double first_makespan = harness.run_to_completion().makespan;
  EXPECT_TRUE(harness.complete());

  // A warm resubmission: the negotiator restarts and the stale cached
  // result is dropped.
  auto extra = workload::make_real_jobset(6, Rng(seed).child("late"));
  for (auto& job : extra) job.id += 1000;  // distinct ids
  harness.submit(extra);
  EXPECT_FALSE(harness.complete());
  const ExperimentResult after = harness.run_to_completion();
  EXPECT_TRUE(harness.complete());
  EXPECT_EQ(after.jobs_completed + after.jobs_failed, 18u);
  EXPECT_GE(after.makespan, first_makespan);
}

TEST(Harness, DuplicateIdRejectedWhileArrivalStillPending) {
  // A future-dated arrival reserves its id at submit() time, not at
  // fire time — a second submission under the same id must fail loudly
  // even though the first job is still sitting in the event queue.
  Harness harness(small_cluster(StackConfig::kMCC, 4));
  auto jobs = workload::make_real_jobset(2, Rng(4).child("jobs"));
  jobs[0].submit_time = 50.0;
  harness.submit(jobs[0]);
  jobs[1].id = jobs[0].id;
  EXPECT_THROW(harness.submit(jobs[1]), std::exception);
}

TEST(Harness, DeferredArrivalRunsTheSpecAsSubmitted) {
  // Regression: the pending-arrival event must capture the spec by
  // value. Mutating the caller's copy after submit() — or anything the
  // harness's own tables later do under that id — must not change what
  // fires. Two harnesses, identical submissions; one caller scribbles
  // over its local spec afterwards; the results must stay bit-identical.
  const ExperimentConfig config = small_cluster(StackConfig::kMCCK, 6);
  auto jobs = workload::make_real_jobset(6, Rng(6).child("jobs"));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = 20.0 * static_cast<double>(i);
  }

  Harness clean(config);
  clean.submit(jobs);
  const ExperimentResult expected = clean.run_to_completion();

  Harness scribbled(config);
  for (auto job : jobs) {  // deliberate copy: the caller's to deface
    scribbled.submit(job);
    job.threads_req = 1;
    job.mem_req_mib = 1;
    job.profile = {};
  }
  expect_identical(expected, scribbled.run_to_completion());
}

TEST(Harness, WarmResubmissionWithFutureArrivalsStillPending) {
  // Drain, then resubmit a batch whose arrivals are still in the
  // future: the run re-opens, result() refuses mid-way, and a second
  // drain lands every straggler.
  const std::uint64_t seed = 31;
  Harness harness(small_cluster(StackConfig::kMCCK, seed));
  harness.submit(workload::make_real_jobset(8, Rng(seed).child("jobs")));
  harness.run_to_completion();
  ASSERT_TRUE(harness.complete());
  const SimTime drained_at = harness.now();

  auto late = workload::make_real_jobset(4, Rng(seed).child("late"));
  for (std::size_t i = 0; i < late.size(); ++i) {
    late[i].id += 1000;
    late[i].submit_time = drained_at + 30.0 * static_cast<double>(i + 1);
  }
  harness.submit(late);
  EXPECT_FALSE(harness.complete());
  EXPECT_THROW((void)harness.result(), std::exception)
      << "result() must refuse while future arrivals are pending";

  // Mid-way: past the first late arrival, before the last.
  harness.run_until(drained_at + 45.0);
  EXPECT_FALSE(harness.complete());
  EXPECT_THROW((void)harness.result(), std::exception);

  const ExperimentResult final_result = harness.run_to_completion();
  EXPECT_TRUE(harness.complete());
  EXPECT_EQ(final_result.jobs_completed + final_result.jobs_failed, 12u);
}

TEST(Harness, JobsPendingTracksTheScheddQueue) {
  Harness harness(small_cluster(StackConfig::kMCC, 8));
  EXPECT_EQ(harness.jobs_pending(), 0u);
  harness.submit(workload::make_real_jobset(5, Rng(8).child("jobs")));
  EXPECT_EQ(harness.jobs_pending(), 5u);
  harness.run_to_completion();
  EXPECT_EQ(harness.jobs_pending(), 0u);
}

TEST(Harness, LazyStartLeavesTheQueueEmpty) {
  Harness harness(small_cluster(StackConfig::kMCC, 2));
  EXPECT_FALSE(harness.started());
  EXPECT_EQ(harness.simulator().pending_events(), 0u);
  harness.submit(workload::make_real_jobset(4, Rng(2).child("jobs")));
  // Submissions with submit_time 0 go straight to the schedd, not the
  // event queue; the negotiator is armed on the first driving call.
  EXPECT_FALSE(harness.started());
  harness.run_until(0.0);
  EXPECT_TRUE(harness.started());
}

}  // namespace
}  // namespace phisched::cluster
