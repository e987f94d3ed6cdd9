// A node's cards (the --devices fleet) decide what a job may ask for
// and where it may run: submit-time validation, MC's exclusive claims,
// and the retry boost's clamp all read the cards the nodes carry.
#include <gtest/gtest.h>

#include <string>

#include "cluster/harness.hpp"
#include "phi/capability.hpp"
#include "workload/jobset.hpp"

namespace phisched::cluster {
namespace {

using workload::OffloadProfile;
using workload::Segment;

ExperimentConfig fleet_config(const std::string& devices, StackConfig stack) {
  ExperimentConfig config;
  config.node_count = 1;
  config.stack = stack;
  config.devices = phi::parse_device_spec(devices);
  return config;
}

workload::JobSpec job(JobId id, MiB memory, ThreadCount threads,
                      int devices = 1) {
  workload::JobSpec spec;
  spec.id = id;
  spec.mem_req_mib = memory;
  spec.threads_req = threads;
  spec.devices_req = devices;
  spec.profile = OffloadProfile({Segment::offload(20.0, threads, memory)});
  return spec;
}

TEST(Fleet, EmptyFleetIsRejected) {
  ExperimentConfig config;
  config.devices.clear();
  EXPECT_THROW(Harness{config}, std::invalid_argument);
}

TEST(Fleet, SubmitAcceptsWhatOnlyTheFleetsCardHolds) {
  // A 7120P holds 15,872 MiB and 244 threads; a 5110P holds neither.
  Harness harness(fleet_config("1x7120P", StackConfig::kMCC));
  EXPECT_NO_THROW(harness.submit(job(0, 12'000, 60)));
  EXPECT_NO_THROW(harness.submit(job(1, 1'000, 244)));
  EXPECT_THROW(harness.submit(job(2, 16'000, 60)), std::invalid_argument);
  EXPECT_THROW(harness.submit(job(3, 1'000, 245)), std::invalid_argument);
}

TEST(Fleet, SubmitCountsTheFleetsCardsForAGang) {
  Harness harness(fleet_config("2x5110P", StackConfig::kMC));
  EXPECT_NO_THROW(harness.submit(job(0, 1'000, 60, 2)));
  EXPECT_THROW(harness.submit(job(1, 1'000, 60, 3)), std::invalid_argument);
}

TEST(Fleet, SubmitRefusesWhatNoCardOfTheFleetHolds) {
  // A 3120A holds 5,632 MiB and 228 threads: these jobs could never run.
  Harness harness(fleet_config("1x3120A", StackConfig::kMCC));
  EXPECT_THROW(harness.submit(job(0, 7'000, 60)), std::invalid_argument);
  EXPECT_THROW(harness.submit(job(1, 1'000, 240)), std::invalid_argument);
  EXPECT_NO_THROW(harness.submit(job(2, 5'000, 228)));
}

TEST(Fleet, GangNeedsEnoughCardsThatEachHoldIt) {
  // Only the 7120P holds 7,000 MiB, so a 2-card gang of that size can
  // never be placed on a 3120A+7120P node.
  Harness harness(fleet_config("1x3120A+1x7120P", StackConfig::kMC));
  EXPECT_THROW(harness.submit(job(0, 7'000, 60, 2)), std::invalid_argument);
  EXPECT_NO_THROW(harness.submit(job(1, 5'000, 60, 2)));
}

TEST(Fleet, MCClaimsOnlyACardThatHoldsTheJob) {
  // The 3120A is card 0 and free, but too small: MC must claim the 7120P.
  // Driven with run_until so a job stuck on the wrong card fails the test
  // instead of hanging it.
  Harness harness(fleet_config("1x3120A+1x7120P", StackConfig::kMC));
  harness.submit(job(0, 7'000, 60));
  harness.run_until(1'000.0);
  ASSERT_TRUE(harness.complete());
  EXPECT_EQ(harness.jobs_completed(), 1u);
  const ExperimentResult r = harness.result();
  EXPECT_EQ(r.offloads_started, 1u);
  EXPECT_LT(r.makespan, 30.0);
}

TEST(Fleet, RetryBoostIsClampedToTheFleetsLargestCard) {
  // Declares 5,000 MiB but needs 9,000: the first retry's 2x boost must
  // reach 10,000 MiB on a 7120P fleet, not stop at a 5110P's 7,680.
  ExperimentConfig config = fleet_config("1x7120P", StackConfig::kMCC);
  config.max_retries = 1;
  Harness harness(config);
  workload::JobSpec liar = job(0, 5'000, 60);
  liar.profile = OffloadProfile({Segment::offload(20.0, 60, 9'000)});
  harness.submit(liar);
  const ExperimentResult r = harness.run_to_completion();
  EXPECT_EQ(r.jobs_completed, 1u);
  EXPECT_EQ(r.jobs_failed, 0u);
  EXPECT_EQ(r.job_retries, 1u);
}

// --- submit-time validation ---------------------------------------------
// Harness::unfit_reason and submit's preconditions are the one check of a
// job against the cluster.

TEST(Validate, CleanSetPasses) {
  const workload::JobSet jobs = workload::make_real_jobset(100, Rng(1));
  Harness harness(ExperimentConfig{});
  for (const workload::JobSpec& spec : jobs) {
    EXPECT_EQ(harness.unfit_reason(spec), nullptr) << spec.id;
  }
  EXPECT_NO_THROW(harness.submit(jobs));
}

TEST(Validate, DuplicateIds) {
  Harness harness(ExperimentConfig{});
  harness.submit(job(1, 1'000, 60));
  try {
    harness.submit(job(1, 1'000, 60));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(Validate, OversizedMemoryAndThreads) {
  Harness harness(ExperimentConfig{});
  EXPECT_STREQ(harness.unfit_reason(job(0, 100'000, 60)),
               "job does not fit one coprocessor's memory");
  EXPECT_STREQ(harness.unfit_reason(job(1, 1'000, 500)),
               "job does not fit one coprocessor's threads");
  EXPECT_THROW(harness.submit(job(2, 100'000, 500)), std::invalid_argument);
}

TEST(Validate, NegativeSubmitTime) {
  Harness harness(ExperimentConfig{});
  workload::JobSpec early = job(0, 1'000, 60);
  early.submit_time = -1.0;
  EXPECT_THROW(harness.submit(early), std::invalid_argument);
}

TEST(Validate, CustomHardwareShrinksTheEnvelope) {
  // 6,000 MiB fits a default 5110P (7,680 usable), not a 3120A (5,632).
  const workload::JobSpec big = job(0, 6'000, 60);
  const Harness standard(ExperimentConfig{});
  const Harness small(fleet_config("3120A", StackConfig::kMCCK));
  EXPECT_EQ(standard.unfit_reason(big), nullptr);
  EXPECT_NE(small.unfit_reason(big), nullptr);
}

TEST(Validate, ExactFitIsAccepted) {
  for (const phi::DeviceCapability& card : phi::known_generations()) {
    SCOPED_TRACE(card.generation);
    const Harness harness(fleet_config(card.generation, StackConfig::kMCCK));
    const MiB memory = card.hw.usable_memory_mib();
    const ThreadCount threads = card.hw.hw_threads();
    EXPECT_EQ(harness.unfit_reason(job(0, memory, threads)), nullptr);
    EXPECT_NE(harness.unfit_reason(job(1, memory + 1, threads)), nullptr);
    EXPECT_NE(harness.unfit_reason(job(2, memory, threads + 1)), nullptr);
  }
}

}  // namespace
}  // namespace phisched::cluster
