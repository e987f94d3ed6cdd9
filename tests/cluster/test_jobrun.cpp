#include "cluster/jobrun.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "phi/device.hpp"

namespace phisched::cluster {
namespace {

using workload::OffloadProfile;
using workload::Segment;

class JobRunTest : public ::testing::Test {
 protected:
  void build() {
    phi::DeviceConfig dc;
    dc.affinity = phi::AffinityPolicy::kManagedCompact;
    device_ = std::make_unique<phi::Device>(sim_, dc, Rng(1));
    mw_ = std::make_unique<cosmic::NodeMiddleware>(
        sim_, std::vector<phi::Device*>{device_.get()},
        cosmic::MiddlewareConfig{});
  }

  workload::JobSpec spec(JobId id, OffloadProfile profile, MiB declared = 2000,
                         ThreadCount threads = 120) {
    workload::JobSpec s;
    s.id = id;
    s.mem_req_mib = declared;
    s.threads_req = threads;
    s.profile = std::move(profile);
    return s;
  }

  Simulator sim_;
  std::unique_ptr<phi::Device> device_;
  std::unique_ptr<cosmic::NodeMiddleware> mw_;
};

TEST_F(JobRunTest, RunsProfileToCompletion) {
  build();
  OffloadProfile profile({Segment::offload(4.0, 120, 500), Segment::host(2.0),
                          Segment::offload(4.0, 120, 500)});
  bool success = false;
  SimTime done_at = -1.0;
  JobRun run(sim_, spec(1, profile), *mw_, {},
             [&](const workload::JobSpec&, bool ok) {
               success = ok;
               done_at = sim_.now();
             });
  run.arrive();
  EXPECT_TRUE(run.admitted());
  sim_.run_until(5.0);  // inside the host segment: its timer is pending
  EXPECT_FALSE(run.quiescent());
  sim_.run();
  EXPECT_TRUE(success);
  EXPECT_TRUE(run.finished());
  EXPECT_TRUE(run.quiescent());
  EXPECT_DOUBLE_EQ(done_at, 10.0);
  // Resources are fully released.
  EXPECT_EQ(device_->memory_used(), 0);
  EXPECT_EQ(mw_->jobs_on_device(0), 0u);
}

TEST_F(JobRunTest, EmptyProfileFinishesImmediately) {
  build();
  bool success = false;
  JobRun run(sim_, spec(1, OffloadProfile{}), *mw_, {},
             [&](const workload::JobSpec&, bool ok) { success = ok; });
  run.arrive();
  EXPECT_TRUE(success);
}

TEST_F(JobRunTest, HostOnlyProfileNeverTouchesDevice) {
  build();
  bool success = false;
  JobRun run(sim_, spec(1, OffloadProfile({Segment::host(5.0)})), *mw_,
             {},
             [&](const workload::JobSpec&, bool ok) { success = ok; });
  run.arrive();
  sim_.run();
  EXPECT_TRUE(success);
  EXPECT_EQ(device_->stats().offloads_started, 0u);
}

TEST_F(JobRunTest, ParksWhenDeviceFullThenRuns) {
  build();
  bool blocker_admitted = false;
  mw_->submit_job(99, {}, {.mem_per_device = 7000, .threads = 60,
                           .base_memory = 16},
                  nullptr, [&] { blocker_admitted = true; });
  ASSERT_TRUE(blocker_admitted);

  bool success = false;
  JobRun run(sim_, spec(1, OffloadProfile({Segment::offload(2.0, 60, 100)})),
             *mw_, {},
             [&](const workload::JobSpec&, bool ok) { success = ok; });
  run.arrive();
  EXPECT_FALSE(run.admitted());
  EXPECT_EQ(mw_->waiting_jobs(), 1u);
  mw_->finish_job(99);
  EXPECT_TRUE(run.admitted());
  sim_.run();
  EXPECT_TRUE(success);
}

TEST_F(JobRunTest, ContainerKillReportsFailure) {
  build();
  // Declares 600 MiB but the second offload's working set is 2000 MiB.
  OffloadProfile profile({Segment::offload(2.0, 60, 400), Segment::host(1.0),
                          Segment::offload(2.0, 60, 2000)});
  bool done = false;
  bool success = true;
  JobRun run(sim_, spec(1, profile, /*declared=*/600, 60), *mw_, {},
             [&](const workload::JobSpec&, bool ok) {
               done = true;
               success = ok;
             });
  run.arrive();
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(success);
  EXPECT_TRUE(run.killed());
  EXPECT_TRUE(run.quiescent());
  EXPECT_EQ(device_->memory_used(), 0);
}

TEST_F(JobRunTest, KillDuringHostSegmentLeavesNothingToCallTheRun) {
  build();
  // An async offload runs under the host segment when the kill lands.
  OffloadProfile profile({Segment::offload_async(10.0, 60, 100),
                          Segment::host(5.0), Segment::sync()});
  int calls = 0;
  JobRun run(sim_, spec(1, profile), *mw_, {},
             [&](const workload::JobSpec&, bool) { ++calls; });
  run.arrive();
  sim_.run_until(1.0);
  EXPECT_FALSE(run.quiescent());
  device_->kill_process(1, phi::KillReason::kAdmin);
  EXPECT_TRUE(run.killed());
  EXPECT_TRUE(run.quiescent());
  sim_.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(JobRunTest, PinnedDeviceIsHonoured) {
  phi::DeviceConfig dc;
  device_ = std::make_unique<phi::Device>(sim_, dc, Rng(1));
  auto second = std::make_unique<phi::Device>(sim_, dc, Rng(2));
  mw_ = std::make_unique<cosmic::NodeMiddleware>(
      sim_, std::vector<phi::Device*>{device_.get(), second.get()},
      cosmic::MiddlewareConfig{});
  JobRun run(sim_, spec(1, OffloadProfile({Segment::offload(1.0, 60, 100)})),
             *mw_, {DeviceId{1}},
             [](const workload::JobSpec&, bool) {});
  run.arrive();
  EXPECT_EQ(mw_->jobs_on_device(1), 1u);
  EXPECT_EQ(mw_->jobs_on_device(0), 0u);
  sim_.run();
}

TEST_F(JobRunTest, AsyncOffloadsOverlapWhenThreadsAllow) {
  build();
  // Two async 60-thread offloads overlap on one device: wall time is
  // max(4,6) + the trailing sync'd host work, not 4+6.
  OffloadProfile profile({Segment::offload_async(4.0, 60, 200),
                          Segment::offload_async(6.0, 60, 200),
                          Segment::sync(), Segment::host(1.0)});
  SimTime done_at = -1.0;
  JobRun run(sim_, spec(1, profile), *mw_, {},
             [&](const workload::JobSpec&, bool ok) {
               EXPECT_TRUE(ok);
               done_at = sim_.now();
             });
  run.arrive();
  sim_.run();
  EXPECT_DOUBLE_EQ(done_at, 7.0);
}

TEST_F(JobRunTest, ImplicitFinalBarrierJoinsAsyncWork) {
  build();
  OffloadProfile profile({Segment::host(1.0),
                          Segment::offload_async(5.0, 60, 200)});
  SimTime done_at = -1.0;
  JobRun run(sim_, spec(1, profile), *mw_, {},
             [&](const workload::JobSpec&, bool ok) {
               EXPECT_TRUE(ok);
               done_at = sim_.now();
             });
  run.arrive();
  sim_.run();
  EXPECT_DOUBLE_EQ(done_at, 6.0);  // not 1.0: the job waits for the async
}

TEST_F(JobRunTest, SyncWithNothingOutstandingIsFree) {
  build();
  OffloadProfile profile({Segment::sync(), Segment::host(2.0),
                          Segment::sync()});
  SimTime done_at = -1.0;
  JobRun run(sim_, spec(1, profile), *mw_, {},
             [&](const workload::JobSpec&, bool) { done_at = sim_.now(); });
  run.arrive();
  sim_.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST_F(JobRunTest, KillDuringAsyncOffloadReportsOnce) {
  build();
  // First async offload is fine; the second violates the container.
  OffloadProfile profile({Segment::offload_async(5.0, 60, 400),
                          Segment::offload_async(5.0, 60, 5000),
                          Segment::sync()});
  int done_calls = 0;
  bool success = true;
  JobRun run(sim_, spec(1, profile, /*declared=*/600, 60), *mw_, {},
             [&](const workload::JobSpec&, bool ok) {
               ++done_calls;
               success = ok;
             });
  run.arrive();
  sim_.run();
  EXPECT_EQ(done_calls, 1);
  EXPECT_FALSE(success);
  EXPECT_EQ(device_->memory_used(), 0);
}

TEST_F(JobRunTest, DoubleArriveThrows) {
  build();
  JobRun run(sim_, spec(1, OffloadProfile{}), *mw_, {},
             [](const workload::JobSpec&, bool) {});
  run.arrive();
  EXPECT_THROW(run.arrive(), std::invalid_argument);
}

TEST_F(JobRunTest, NullDoneCallbackThrows) {
  build();
  EXPECT_THROW(JobRun(sim_, spec(1, OffloadProfile{}), *mw_, {},
                      nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace phisched::cluster
