#include "cosmic/middleware.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace phisched::cosmic {
namespace {

class MiddlewareTest : public ::testing::Test {
 protected:
  void build(MiddlewareConfig config = {}, int devices = 1) {
    phi::DeviceConfig dc;
    dc.affinity = phi::AffinityPolicy::kManagedCompact;
    std::vector<phi::Device*> raw;
    for (int d = 0; d < devices; ++d) {
      devices_.push_back(std::make_unique<phi::Device>(
          sim_, dc, Rng(static_cast<std::uint64_t>(d) + 1)));
      raw.push_back(devices_.back().get());
    }
    mw_ = std::make_unique<NodeMiddleware>(sim_, raw, config);
  }

  /// Admits a job synchronously (capacity is known to be available).
  void admit(JobId job, MiB mem, ThreadCount threads, DeviceId pin = -1) {
    bool admitted = false;
    std::vector<DeviceId> pinned;
    if (pin >= 0) pinned.push_back(pin);
    mw_->submit_job(job, pinned, {.mem_per_device = mem, .threads = threads,
                                  .base_memory = 16},
                    nullptr, [&] { admitted = true; });
    ASSERT_TRUE(admitted);
  }

  Simulator sim_;
  std::vector<std::unique_ptr<phi::Device>> devices_;
  std::unique_ptr<NodeMiddleware> mw_;
};

TEST_F(MiddlewareTest, ReservationLedger) {
  build();
  EXPECT_EQ(mw_->unreserved_memory(0), 7680);
  EXPECT_EQ(mw_->unreserved_threads(0), 240);
  admit(1, 2000, 120);
  EXPECT_EQ(mw_->unreserved_memory(0), 5680);
  EXPECT_EQ(mw_->unreserved_threads(0), 120);
  EXPECT_EQ(mw_->jobs_on_device(0), 1u);
  mw_->finish_job(1);
  EXPECT_EQ(mw_->unreserved_memory(0), 7680);
  EXPECT_EQ(mw_->jobs_on_device(0), 0u);
}

TEST_F(MiddlewareTest, SubmitParksJobWhenFull) {
  build();
  admit(1, 5000, 60);
  bool admitted = false;
  mw_->submit_job(2, {}, {.mem_per_device = 3000, .threads = 60,
                          .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  EXPECT_FALSE(admitted);
  EXPECT_EQ(mw_->waiting_jobs(), 1u);
  EXPECT_EQ(mw_->stats().jobs_parked, 1u);
  mw_->finish_job(1);  // frees capacity → parked job admits
  EXPECT_TRUE(admitted);
  EXPECT_EQ(mw_->waiting_jobs(), 0u);
}

TEST_F(MiddlewareTest, StrictAdmissionBlocksBehindBigJob) {
  build();  // default: strict FIFO job admission
  admit(1, 5000, 60);
  bool big = false;
  bool small = false;
  mw_->submit_job(2, {}, {.mem_per_device = 4000, .threads = 60,
                          .base_memory = 16}, nullptr, [&] { big = true; });
  mw_->submit_job(3, {}, {.mem_per_device = 100, .threads = 60,
                          .base_memory = 16}, nullptr, [&] { small = true; });
  // The small job fits right now, but strict FIFO parks it behind the
  // big one.
  EXPECT_FALSE(big);
  EXPECT_FALSE(small);
  EXPECT_EQ(mw_->waiting_jobs(), 2u);
  mw_->finish_job(1);
  EXPECT_TRUE(big);
  EXPECT_TRUE(small);
}

TEST_F(MiddlewareTest, PinnedSubmitWaitsForThatDevice) {
  build({}, /*devices=*/2);
  admit(1, 5000, 60, /*pin=*/0);
  bool admitted = false;
  mw_->submit_job(2, {DeviceId{0}}, {.mem_per_device = 4000, .threads = 60,
                                     .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  // Device 1 has room, but the pin says device 0.
  EXPECT_FALSE(admitted);
  mw_->finish_job(1);
  EXPECT_TRUE(admitted);
  EXPECT_EQ(mw_->jobs_on_device(0), 1u);
  EXPECT_EQ(mw_->jobs_on_device(1), 0u);
}

TEST_F(MiddlewareTest, PickDevicePrefersMostFreeMemory) {
  build({}, /*devices=*/2);
  admit(1, 3000, 60, /*pin=*/0);
  EXPECT_EQ(mw_->pick_gang(1, 1000), std::vector<DeviceId>{1});
  EXPECT_TRUE(mw_->pick_gang(1, 7700).empty());
}

TEST_F(MiddlewareTest, OffloadSerialization) {
  build();
  admit(1, 1000, 240);
  admit(2, 1000, 240);
  bool first_done = false;
  bool second_started_late = false;
  mw_->request_offload(1, 240, 100, 5.0, [&] { first_done = true; });
  mw_->request_offload(2, 240, 100, 5.0, [&] {
    second_started_late = first_done;  // must have waited for the first
  });
  EXPECT_EQ(mw_->queued_offloads(0), 1u);
  EXPECT_EQ(devices_[0]->active_thread_demand(), 240);
  sim_.run();
  EXPECT_TRUE(first_done);
  EXPECT_TRUE(second_started_late);
  // No thread oversubscription ever happened.
  EXPECT_EQ(mw_->stats().offloads_queued, 1u);
}

TEST_F(MiddlewareTest, ConcurrentNarrowOffloadsOverlap) {
  build();
  admit(1, 1000, 120);
  admit(2, 1000, 120);
  SimTime t1 = -1.0;
  SimTime t2 = -1.0;
  mw_->request_offload(1, 120, 100, 5.0, [&] { t1 = sim_.now(); });
  mw_->request_offload(2, 120, 100, 5.0, [&] { t2 = sim_.now(); });
  EXPECT_EQ(mw_->queued_offloads(0), 0u);
  sim_.run();
  EXPECT_DOUBLE_EQ(t1, 5.0);
  EXPECT_DOUBLE_EQ(t2, 5.0);  // fully overlapped, no queueing
}

TEST_F(MiddlewareTest, QueuedOffloadPaysResumeOverhead) {
  MiddlewareConfig config;
  config.queued_resume_overhead_s = 1.0;
  build(config);
  // Declare only 120 threads each so resident-load interference stays off
  // and the timing isolates the resume overhead.
  admit(1, 1000, 120);
  admit(2, 1000, 120);
  SimTime t2 = -1.0;
  mw_->request_offload(1, 240, 100, 5.0, nullptr);
  mw_->request_offload(2, 240, 100, 5.0, [&] { t2 = sim_.now(); });
  sim_.run();
  // Second offload: starts at 5.0 after the first, runs 5.0 + 1.0 overhead.
  EXPECT_DOUBLE_EQ(t2, 11.0);
}

TEST_F(MiddlewareTest, StrictDrainBlocksBehindWideHead) {
  build();
  admit(1, 1000, 180);
  admit(2, 1000, 240);
  admit(3, 1000, 60);
  std::vector<JobId> order;
  mw_->request_offload(1, 180, 10, 5.0, [&] { order.push_back(1); });
  mw_->request_offload(2, 240, 10, 5.0, [&] { order.push_back(2); });
  mw_->request_offload(3, 60, 10, 5.0, [&] { order.push_back(3); });
  // 60-thread offload would fit beside the 180, but the 240 head blocks it.
  EXPECT_EQ(mw_->queued_offloads(0), 2u);
  sim_.run();
  EXPECT_EQ(order, (std::vector<JobId>{1, 2, 3}));
}

TEST_F(MiddlewareTest, SkipDrainLetsNarrowOffloadOvertake) {
  MiddlewareConfig config;
  config.drain = DrainPolicy::kFifoSkip;
  config.queued_resume_overhead_s = 0.0;
  build(config);
  admit(1, 1000, 180);
  admit(2, 1000, 240);
  admit(3, 1000, 60);
  std::vector<JobId> order;
  mw_->request_offload(1, 180, 10, 5.0, [&] { order.push_back(1); });
  mw_->request_offload(2, 240, 10, 5.0, [&] { order.push_back(2); });
  mw_->request_offload(3, 60, 10, 5.0, [&] { order.push_back(3); });
  // The 60-thread offload runs beside the 180 immediately.
  EXPECT_EQ(mw_->queued_offloads(0), 1u);
  sim_.run();
  EXPECT_EQ(order, (std::vector<JobId>{1, 3, 2}));
}

TEST_F(MiddlewareTest, SerializationDisabledAllowsOversubscription) {
  MiddlewareConfig config;
  config.serialize_offloads = false;
  build(config);
  admit(1, 1000, 240);
  admit(2, 1000, 240);
  mw_->request_offload(1, 240, 100, 5.0, nullptr);
  mw_->request_offload(2, 240, 100, 5.0, nullptr);
  EXPECT_EQ(devices_[0]->active_thread_demand(), 480);
  EXPECT_LT(devices_[0]->current_speed(), 1.0);
}

TEST_F(MiddlewareTest, ResidentThreadLoadForwardedToDevice) {
  build();
  admit(1, 1000, 180);
  admit(2, 1000, 180);
  EXPECT_EQ(devices_[0]->resident_thread_load(), 360);
  mw_->finish_job(1);
  EXPECT_EQ(devices_[0]->resident_thread_load(), 180);
}

TEST_F(MiddlewareTest, UnknownJobOffloadThrows) {
  build();
  EXPECT_THROW(mw_->request_offload(99, 60, 10, 1.0, nullptr),
               std::invalid_argument);
}

TEST_F(MiddlewareTest, FinishUnknownJobThrows) {
  build();
  EXPECT_THROW(mw_->finish_job(99), std::invalid_argument);
}

TEST_F(MiddlewareTest, ReattachingTelemetryRebindsEveryDeviceSeries) {
  build({}, /*devices=*/2);
  obs::Recorder first;
  obs::Recorder second;
  mw_->attach_telemetry(first, "cosmic.node0");
  admit(1, 1000, 240, /*pin=*/0);
  admit(2, 1000, 240, /*pin=*/0);
  // Saturate device 0 so the second offload queues → note_queue_depth.
  mw_->request_offload(1, 240, 100, 5.0, nullptr);
  mw_->request_offload(2, 240, 100, 5.0, nullptr);

  // Re-register mid-run (e.g. a fresh recorder for a new measurement
  // window). Every per-device queue-depth series must be rebound; a
  // partial rebinding would trip note_queue_depth's internal check on the
  // next queue movement.
  mw_->attach_telemetry(second, "cosmic.node0");
  sim_.run();  // the queued offload drains and records its depth samples

  const auto snap = obs::take_snapshot(second, sim_.now());
  EXPECT_EQ(snap.metrics.gauges.count("cosmic.node0.mic0.queue_depth.mean"),
            1u);
  EXPECT_EQ(snap.metrics.gauges.count("cosmic.node0.mic1.queue_depth.mean"),
            1u);
}

}  // namespace
}  // namespace phisched::cosmic
