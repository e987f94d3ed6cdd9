// Admission controller: pure decisions from observed state, with the
// queue-depth gate, the occupancy gate, the defer budget, and exact
// bookkeeping in the stats.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/admission.hpp"
#include "common/rng.hpp"
#include "knapsack/batch.hpp"

namespace phisched::cluster {
namespace {

workload::JobSpec job_with(ThreadCount threads, int devices = 1,
                           MiB mem = 0) {
  workload::JobSpec job;
  job.threads_req = threads;
  job.devices_req = devices;
  job.mem_req_mib = mem;
  return job;
}

AdmissionState state_of(std::size_t queue, double occupied, double capacity,
                        std::vector<DeviceCapacity> devices = {}) {
  AdmissionState state;
  state.queue_depth = queue;
  state.occupied_threads = occupied;
  state.thread_capacity = capacity;
  state.devices = std::move(devices);
  return state;
}

TEST(Admission, UnboundedConfigAdmitsEverything) {
  AdmissionController ctl(AdmissionConfig{});
  const AdmissionState state = state_of(1000, 1e9, 1.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ctl.decide(job_with(240), state, 0), AdmissionDecision::kAdmit);
  }
  EXPECT_EQ(ctl.stats().offered, 5u);
  EXPECT_EQ(ctl.stats().admitted, 5u);
  EXPECT_EQ(ctl.stats().rejected_total(), 0u);
}

TEST(Admission, QueueDepthGateRejects) {
  AdmissionConfig config;
  config.max_queue_depth = 10;
  AdmissionController ctl(config);
  EXPECT_EQ(ctl.decide(job_with(60), state_of(9, 0.0, 960.0), 0),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.decide(job_with(60), state_of(10, 0.0, 960.0), 0),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().rejected_queue, 1u);
  EXPECT_EQ(ctl.stats().rejected_occupancy, 0u);
  EXPECT_EQ(ctl.stats().rejected_total(), 1u);
}

TEST(Admission, OccupancyGateCountsDeclaredGangThreads) {
  AdmissionConfig config;
  config.max_occupancy = 0.5;  // of 960 threads = 480
  AdmissionController ctl(config);
  // 300 occupied + 120 declared = 420 < 480: admit.
  EXPECT_EQ(ctl.decide(job_with(120), state_of(0, 300.0, 960.0), 0),
            AdmissionDecision::kAdmit);
  // Gang of 2 devices doubles the declaration: 300 + 240 > 480: reject.
  EXPECT_EQ(ctl.decide(job_with(120, 2), state_of(0, 300.0, 960.0), 0),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().rejected_occupancy, 1u);
}

TEST(Admission, UnfitArrivalIsRejectedBeforeEveryGate) {
  // A defer path and open gates change nothing: no wait makes a card fit.
  AdmissionConfig config;
  config.defer_delay_s = 10.0;
  AdmissionController ctl(config);
  AdmissionState unfit = state_of(0, 0.0, 960.0);
  unfit.fits = false;
  EXPECT_EQ(ctl.decide(job_with(240), unfit, 0), AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().offered, 1u);
  EXPECT_EQ(ctl.stats().rejected_unfit, 1u);
  EXPECT_EQ(ctl.stats().deferred, 0u);
  EXPECT_EQ(ctl.stats().rejected_total(), 1u);
}

TEST(Admission, DeferBudgetThenDrop) {
  AdmissionConfig config;
  config.max_queue_depth = 1;
  config.defer_delay_s = 10.0;
  config.max_defers = 2;
  AdmissionController ctl(config);
  const AdmissionState full = state_of(1, 0.0, 960.0);
  EXPECT_EQ(ctl.decide(job_with(60), full, 0), AdmissionDecision::kDefer);
  EXPECT_EQ(ctl.decide(job_with(60), full, 1), AdmissionDecision::kDefer);
  EXPECT_EQ(ctl.decide(job_with(60), full, 2), AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().deferred, 2u);
  EXPECT_EQ(ctl.stats().dropped, 1u);
  EXPECT_EQ(ctl.stats().rejected_queue, 0u)
      << "a shed deferred job counts as dropped, not queue-rejected";
  EXPECT_EQ(ctl.stats().rejected_total(), 1u);

  // A deferred job admitted on retry counts once as deferred + admitted.
  EXPECT_EQ(ctl.decide(job_with(60), state_of(0, 0.0, 960.0), 1),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.stats().admitted, 1u);
  EXPECT_EQ(ctl.stats().offered, 4u);
}

TEST(Admission, PackerConsultOverrulesTheOccupancyGate) {
  AdmissionConfig config;
  config.max_occupancy = 0.5;  // of 960 threads = 480
  config.consult_packer = true;
  AdmissionController ctl(config);
  // Aggregate gate says full (450 + 60 > 480), but one device has real
  // headroom: the pack consult admits anyway.
  const auto roomy = state_of(0, 450.0, 960.0, {{500, 20}, {8000, 120}});
  EXPECT_EQ(ctl.decide(job_with(60, 1, 2000), roomy, 0),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.stats().admitted, 1u);
  EXPECT_EQ(ctl.stats().admitted_by_pack, 1u);
  EXPECT_EQ(ctl.stats().rejected_occupancy, 0u);

  // Same gate verdict, but no device can take 60 threads + 2000 MiB:
  // the consult agrees with the rejection.
  const auto tight = state_of(0, 450.0, 960.0, {{500, 20}, {1000, 120}});
  EXPECT_EQ(ctl.decide(job_with(60, 1, 2000), tight, 0),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().rejected_occupancy, 1u);
  EXPECT_EQ(ctl.stats().admitted_by_pack, 1u);
}

TEST(Admission, PackerConsultNeverOverrulesTheQueueGate) {
  AdmissionConfig config;
  config.max_queue_depth = 4;
  config.consult_packer = true;
  AdmissionController ctl(config);
  const auto queue_full = state_of(4, 0.0, 960.0, {{8000, 240}});
  EXPECT_EQ(ctl.decide(job_with(60, 1, 100), queue_full, 0),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().rejected_queue, 1u);
  EXPECT_EQ(ctl.stats().admitted_by_pack, 0u);
}

TEST(Admission, GangJobsStayWithTheAggregateVerdict) {
  AdmissionConfig config;
  config.max_occupancy = 0.5;
  config.consult_packer = true;
  AdmissionController ctl(config);
  // A 2-device gang needs both coprocessors at once; the single-knapsack
  // consult cannot model that, so the aggregate rejection stands even
  // though each device individually has room.
  const auto state = state_of(0, 400.0, 960.0, {{8000, 240}, {8000, 240}});
  EXPECT_EQ(ctl.decide(job_with(120, 2, 100), state, 0),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().rejected_occupancy, 1u);
  EXPECT_EQ(ctl.stats().admitted_by_pack, 0u);
}

TEST(Admission, EmptyDeviceSnapshotDisablesTheConsult) {
  AdmissionConfig config;
  config.max_occupancy = 0.5;
  config.consult_packer = true;
  AdmissionController ctl(config);
  EXPECT_EQ(ctl.decide(job_with(120, 1, 100), state_of(0, 450.0, 960.0), 0),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().rejected_occupancy, 1u);
}

TEST(Admission, ConsultedRejectionStillDefers) {
  AdmissionConfig config;
  config.max_occupancy = 0.5;
  config.consult_packer = true;
  config.defer_delay_s = 10.0;
  config.max_defers = 1;
  AdmissionController ctl(config);
  const auto tight = state_of(0, 450.0, 960.0, {{1000, 20}});
  EXPECT_EQ(ctl.decide(job_with(60, 1, 2000), tight, 0),
            AdmissionDecision::kDefer);
  EXPECT_EQ(ctl.decide(job_with(60, 1, 2000), tight, 1),
            AdmissionDecision::kReject);
  EXPECT_EQ(ctl.stats().deferred, 1u);
  EXPECT_EQ(ctl.stats().dropped, 1u);
}

TEST(Admission, PackConsultAgreesWithEveryPackerBackend) {
  // The consult's fit test against a one-job BatchPacker run on the same
  // snapshot: memory off the 50 MiB grid, capacities near the job's
  // declaration, zero and negative ones, and empty snapshots.
  AdmissionConfig config;
  config.max_occupancy = 0.5;  // 480 of 960 occupied: the gate always fires
  config.consult_packer = true;
  std::vector<knapsack::BatchPacker> packers;
  for (const auto kind :
       {knapsack::SolverKind::kGreedyDensity, knapsack::SolverKind::kDp1D,
        knapsack::SolverKind::kDp2D, knapsack::SolverKind::kBranchAndBound}) {
    packers.emplace_back(kind);
  }
  Rng rng(22);
  int admitted = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const MiB mem = rng.uniform_int(1, 4000);
    const auto threads = static_cast<ThreadCount>(rng.uniform_int(1, 244));
    std::vector<DeviceCapacity> devices(rng.index(4));
    knapsack::BatchProblem problem;
    knapsack::BatchJob item;
    item.mem_mib = mem;
    item.threads = threads;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      devices[d].free_mib = rng.bernoulli(0.5) ? mem + rng.uniform_int(-60, 60)
                                               : rng.uniform_int(-100, 8000);
      devices[d].free_threads = static_cast<ThreadCount>(
          rng.bernoulli(0.5) ? threads + rng.uniform_int(-2, 2)
                             : rng.uniform_int(-10, 244));
      problem.bins.push_back(
          knapsack::BatchBin{devices[d].free_mib, devices[d].free_threads});
      item.eligible.push_back(d);
    }
    problem.jobs.push_back(item);

    AdmissionController ctl(config);
    const AdmissionState state = state_of(0, 480.0, 960.0, devices);
    const bool admit = ctl.decide(job_with(threads, 1, mem), state, 0) ==
                       AdmissionDecision::kAdmit;
    admitted += admit ? 1 : 0;
    for (const knapsack::BatchPacker& packer : packers) {
      EXPECT_EQ(admit, !packer.pack(problem).placed.empty())
          << "trial " << trial << ", " << packer.backend_name();
    }
  }
  // Both verdicts are common, so the agreement is not vacuous.
  EXPECT_GT(admitted, kTrials / 5);
  EXPECT_LT(admitted, kTrials * 4 / 5);
}

TEST(Admission, RejectsInvalidConfigLoudly) {
  AdmissionConfig bad;
  bad.defer_delay_s = -1.0;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  bad = AdmissionConfig{};
  bad.max_occupancy = -0.1;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  bad = AdmissionConfig{};
  bad.max_defers = -1;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace phisched::cluster
