// COSMIC memory containers: jobs exceeding their declared memory are
// terminated (paper Section IV-D2), protecting honest tenants from lying
// declarations — the failure-injection counterpart to the main experiments
// where all declarations are truthful.
#include <gtest/gtest.h>

#include <memory>

#include "cosmic/middleware.hpp"
#include "sim/simulator.hpp"

namespace phisched::cosmic {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  void build(MiddlewareConfig config = {}) {
    phi::DeviceConfig dc;
    dc.affinity = phi::AffinityPolicy::kManagedCompact;
    device_ = std::make_unique<phi::Device>(sim_, dc, Rng(1));
    mw_ = std::make_unique<NodeMiddleware>(
        sim_, std::vector<phi::Device*>{device_.get()}, config);
  }

  void admit(JobId job, MiB declared, phi::Device::KillCallback on_kill) {
    bool admitted = false;
    mw_->submit_job(job, {}, {.mem_per_device = declared, .threads = 60,
                              .base_memory = 16},
                    std::move(on_kill), [&] { admitted = true; });
    ASSERT_TRUE(admitted);
  }

  Simulator sim_;
  std::unique_ptr<phi::Device> device_;
  std::unique_ptr<NodeMiddleware> mw_;
};

TEST_F(ContainerTest, TruthfulJobRunsToCompletion) {
  build();
  int kills = 0;
  admit(1, 1000, [&](JobId, phi::KillReason) { ++kills; });
  bool done = false;
  mw_->request_offload(1, 60, 900, 5.0, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(kills, 0);
  mw_->finish_job(1);
}

TEST_F(ContainerTest, LyingJobIsKilledAtOffload) {
  build();
  int kills = 0;
  phi::KillReason seen{};
  admit(1, 500, [&](JobId, phi::KillReason reason) {
    ++kills;
    seen = reason;
  });
  bool done = false;
  // Declared 500 MiB but the offload working set pushes usage to 16+800.
  mw_->request_offload(1, 60, 800, 5.0, [&] { done = true; });
  EXPECT_EQ(kills, 1);
  EXPECT_EQ(seen, phi::KillReason::kContainerLimit);
  EXPECT_FALSE(mw_->job_known(1));
  sim_.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(mw_->stats().container_kills, 1u);
}

TEST_F(ContainerTest, ExactDeclarationIsAllowed) {
  build();
  int kills = 0;
  admit(1, 816, [&](JobId, phi::KillReason) { ++kills; });
  mw_->request_offload(1, 60, 800, 1.0, nullptr);  // 16 base + 800 = 816
  sim_.run();
  EXPECT_EQ(kills, 0);
}

TEST_F(ContainerTest, KillFreesReservationForWaitingJobs) {
  build();
  admit(1, 7000, [](JobId, phi::KillReason) {});
  bool second_admitted = false;
  mw_->submit_job(2, {}, {.mem_per_device = 4000, .threads = 60,
                          .base_memory = 16},
                  nullptr, [&] { second_admitted = true; });
  EXPECT_FALSE(second_admitted);
  // Job 1 lies about memory → killed → reservation released → job 2 in.
  mw_->request_offload(1, 60, 7500, 5.0, nullptr);
  EXPECT_TRUE(second_admitted);
}

TEST_F(ContainerTest, EnforcementCanBeDisabled) {
  MiddlewareConfig config;
  config.enforce_containers = false;
  build(config);
  int kills = 0;
  admit(1, 500, [&](JobId, phi::KillReason) { ++kills; });
  bool done = false;
  mw_->request_offload(1, 60, 2000, 5.0, [&] { done = true; });
  sim_.run();
  // Without containers, the lie goes unpunished (only the device OOM
  // killer would intervene, and 2 GiB fits physically).
  EXPECT_EQ(kills, 0);
  EXPECT_TRUE(done);
}

TEST_F(ContainerTest, KillPurgesQueuedOffloadsOfVictim) {
  build();
  int kills = 0;
  admit(1, 1000, [&](JobId, phi::KillReason) { ++kills; });
  admit(2, 1000, nullptr);
  // Job 2 occupies all threads; job 1 queues a safe offload, then issues
  // a violating one.
  mw_->request_offload(2, 240, 100, 10.0, nullptr);
  mw_->request_offload(1, 240, 500, 5.0, nullptr);  // queued, safe
  EXPECT_EQ(mw_->queued_offloads(0), 1u);
  mw_->request_offload(1, 60, 2000, 5.0, nullptr);  // violates container
  EXPECT_EQ(kills, 1);
  EXPECT_EQ(mw_->queued_offloads(0), 0u);  // victim's queue entry purged
}

TEST_F(ContainerTest, DeviceOomStillGuardsWhenContainersOff) {
  MiddlewareConfig config;
  config.enforce_containers = false;
  build(config);
  std::vector<JobId> killed;
  auto on_kill = [&](JobId j, phi::KillReason reason) {
    EXPECT_EQ(reason, phi::KillReason::kOom);
    killed.push_back(j);
  };
  admit(1, 1000, on_kill);
  admit(2, 1000, on_kill);
  // Both lie enormously: actual usage 2x4000 exceeds physical memory.
  mw_->request_offload(1, 60, 4000, 5.0, nullptr);
  mw_->request_offload(2, 60, 4000, 5.0, nullptr);
  EXPECT_EQ(killed.size(), 1u);  // OOM killer picked a victim
  EXPECT_LE(device_->memory_used(), device_->usable_memory());
}

}  // namespace
}  // namespace phisched::cosmic
