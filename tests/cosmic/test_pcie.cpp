// Explicit PCIe model (phi::PcieLink): with a card's link on, an
// offload's input crosses it before device admission and its results
// cross back before completion, fair-sharing the link with concurrent
// containers. Off (the calibrated default), transfers cost nothing
// explicit.
#include <gtest/gtest.h>

#include <memory>

#include "cosmic/middleware.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace phisched::cosmic {
namespace {

class PcieTest : public ::testing::Test {
 protected:
  /// One managed card; a positive bandwidth turns its link on.
  void build(double bandwidth_mib_s, double output_fraction = 0.0) {
    phi::DeviceConfig dc;
    dc.affinity = phi::AffinityPolicy::kManagedCompact;
    if (bandwidth_mib_s > 0.0) {
      dc.pcie.contention = true;
      dc.pcie.bandwidth_mib_s = bandwidth_mib_s;
      dc.pcie.output_fraction = output_fraction;
    }
    device_ = std::make_unique<phi::Device>(sim_, dc, Rng(1));
    MiddlewareConfig config;
    config.queued_resume_overhead_s = 0.0;
    mw_ = std::make_unique<NodeMiddleware>(
        sim_, std::vector<phi::Device*>{device_.get()}, config);
  }

  void admit(JobId job, MiB declared,
             phi::Device::KillCallback on_kill = nullptr) {
    bool ok = false;
    mw_->submit_job(job, {}, {.mem_per_device = declared, .threads = 120,
                              .base_memory = 16},
                    std::move(on_kill), [&] { ok = true; });
    ASSERT_TRUE(ok);
  }

  Simulator sim_;
  std::unique_ptr<phi::Device> device_;
  std::unique_ptr<NodeMiddleware> mw_;
};

/// Fair-share contention on the card's link: concurrent containers'
/// transfers share its bandwidth.
class PcieContentionTest : public PcieTest {};

TEST_F(PcieTest, DisabledByDefaultHasNoDelay) {
  build(0.0);
  admit(1, 2000);
  SimTime done = -1.0;
  mw_->request_offload(1, 60, 1000, 5.0, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST_F(PcieTest, ZeroByteOffloadSkipsTheBus) {
  build(1000.0, /*output_fraction=*/0.25);
  admit(1, 2000);
  SimTime done = -1.0;
  mw_->request_offload(1, 60, 0, 5.0, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
  // No input leg, and a 0 MiB working set returns no results either.
  EXPECT_EQ(device_->pcie_link().stats().transfers_in, 0u);
  EXPECT_EQ(device_->pcie_link().stats().transfers_out, 0u);
  EXPECT_DOUBLE_EQ(device_->pcie_link().busy_fraction(5.0), 0.0);
}

TEST_F(PcieTest, ContainerCheckStillFiresAfterTransfer) {
  build(1000.0);
  int kills = 0;
  SimTime killed_at = -1.0;
  admit(1, 500, [&](JobId, phi::KillReason reason) {
    EXPECT_EQ(reason, phi::KillReason::kContainerLimit);
    ++kills;
    killed_at = sim_.now();
  });
  bool ran = false;
  mw_->request_offload(1, 60, 2000, 5.0, [&] { ran = true; });
  EXPECT_EQ(kills, 0);  // the lie is only visible at admission time
  sim_.run();
  EXPECT_EQ(kills, 1);
  EXPECT_FALSE(ran);
  // The 2000 MiB input crossed the link (2 s) before admission caught it.
  EXPECT_EQ(device_->pcie_link().stats().mib_in, 2000);
  EXPECT_DOUBLE_EQ(killed_at, 2.0);
}

TEST_F(PcieContentionTest, SoloOffloadPaysFullBandwidthTransfer) {
  build(1000.0, /*output_fraction=*/0.0);
  admit(1, 2000);
  SimTime done = -1.0;
  mw_->request_offload(1, 60, 1000, 5.0, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_DOUBLE_EQ(done, 6.0);  // 1 s input + 5 s execution
}

TEST_F(PcieContentionTest, ConcurrentContainersEachSeeHalfBandwidth) {
  build(1000.0, /*output_fraction=*/0.0);
  admit(1, 2100);
  admit(2, 2100);
  SimTime done1 = -1.0;
  SimTime done2 = -1.0;
  mw_->request_offload(1, 60, 1000, 5.0, [&] { done1 = sim_.now(); });
  mw_->request_offload(2, 60, 1000, 5.0, [&] { done2 = sim_.now(); });
  sim_.run();
  // Both inputs share the link in [0, 2] (half bandwidth each), then the
  // executions overlap on the card — each offload takes 7 s instead of
  // the 6 s a container with the link to itself would see.
  EXPECT_DOUBLE_EQ(done1, 7.0);
  EXPECT_DOUBLE_EQ(done2, 7.0);
  EXPECT_DOUBLE_EQ(device_->pcie_link().busy_fraction(7.0), 2.0 / 7.0);
}

TEST_F(PcieContentionTest, OutputTransferDelaysCompletion) {
  build(1000.0, /*output_fraction=*/0.5);
  admit(1, 2000);
  SimTime done = -1.0;
  mw_->request_offload(1, 60, 1000, 5.0, [&] { done = sim_.now(); });
  sim_.run();
  // 1 s input, 5 s execution, then 500 MiB of results back: 0.5 s.
  EXPECT_DOUBLE_EQ(done, 6.5);
  EXPECT_EQ(device_->pcie_link().stats().mib_out, 500);
}

TEST_F(PcieContentionTest, TinyOutputRoundsUpToOneMib) {
  // Regression: memory * output_fraction used to be llround()ed, so a
  // small working set (1 MiB * 0.25 → 0) produced no output transfer at
  // all. It must round up and move at least 1 MiB.
  build(1000.0, /*output_fraction=*/0.25);
  obs::Recorder rec;
  device_->pcie_link().attach_telemetry(rec, "pcie");
  admit(1, 2000);
  SimTime done = -1.0;
  mw_->request_offload(1, 60, 1, 5.0, [&] { done = sim_.now(); });
  sim_.run();
  // 0.001 s input + 5 s execution + 0.001 s for the rounded-up 1 MiB.
  EXPECT_DOUBLE_EQ(done, 5.002);
  EXPECT_EQ(device_->pcie_link().stats().transfers_out, 1u);
  EXPECT_EQ(device_->pcie_link().stats().mib_out, 1);
  // The event log must show a real (non-zero) output transfer.
  const auto ends = rec.events().of_type("pcie_xfer_end");
  ASSERT_EQ(ends.size(), 2u);  // input + output
  EXPECT_EQ(ends[1].fields[2].second, "out");
  EXPECT_EQ(ends[1].fields[3].second, "1");
}

TEST_F(PcieContentionTest, ZeroOutputFractionStartsNoOutputTransfer) {
  // The other half of the regression: a genuinely empty output must not
  // start a 0-MiB transfer that pays latency and inflates
  // transfers_out / queue-depth telemetry.
  build(1000.0, /*output_fraction=*/0.0);
  obs::Recorder rec;
  device_->pcie_link().attach_telemetry(rec, "pcie");
  admit(1, 2000);
  SimTime done = -1.0;
  mw_->request_offload(1, 60, 1000, 5.0, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_DOUBLE_EQ(done, 6.0);  // no output leg
  EXPECT_EQ(device_->pcie_link().stats().transfers_out, 0u);
  EXPECT_EQ(device_->pcie_link().stats().mib_out, 0);
  EXPECT_EQ(rec.events().of_type("pcie_xfer_end").size(), 1u);  // input only
}

TEST_F(PcieContentionTest, KilledJobDropsItsLinkTransfer) {
  build(100.0, /*output_fraction=*/0.0);  // slow link: 10 s per 1000 MiB
  admit(1, 2000);
  bool ran = false;
  mw_->request_offload(1, 60, 1000, 5.0, [&] { ran = true; });
  sim_.schedule_at(1.0, [&] {
    device_->kill_process(1, phi::KillReason::kAdmin);
  });
  sim_.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(device_->pcie_link().stats().cancelled, 1u);
  EXPECT_EQ(device_->pcie_link().active_transfers(), 0u);
}

}  // namespace
}  // namespace phisched::cosmic
