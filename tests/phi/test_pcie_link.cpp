// phi::PcieLink — fair-share bandwidth model of one card's PCIe bus.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "phi/pcie.hpp"
#include "sim/simulator.hpp"

namespace phisched::phi {
namespace {

/// The recorder's events of one type, in emission order.
std::vector<obs::Event> of_type(const obs::Recorder& rec,
                                const std::string& type) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : rec.events()) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

PcieLinkConfig link_config(double bandwidth_mib_s, double latency_s = 0.0) {
  PcieLinkConfig c;
  c.contention = true;
  c.bandwidth_mib_s = bandwidth_mib_s;
  c.latency_s = latency_s;
  return c;
}

TEST(PcieLink, DisabledByDefault) {
  Simulator sim;
  PcieLink link(sim, PcieLinkConfig{});
  EXPECT_FALSE(link.enabled());
  EXPECT_THROW(link.start_transfer(1, 100, XferDir::kIn, nullptr),
               std::invalid_argument);
}

TEST(PcieLink, SoloTransferRunsAtFullBandwidth) {
  Simulator sim;
  PcieLink link(sim, link_config(1000.0));
  SimTime done = -1.0;
  link.start_transfer(1, 2000, XferDir::kIn, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
  EXPECT_EQ(link.stats().transfers_in, 1u);
  EXPECT_EQ(link.stats().mib_in, 2000);
}

TEST(PcieLink, TwoConcurrentTransfersEachSeeHalfBandwidth) {
  Simulator sim;
  PcieLink link(sim, link_config(1000.0));
  SimTime done1 = -1.0;
  SimTime done2 = -1.0;
  // Alone, each 1000 MiB transfer would take 1 s; sharing the link they
  // each progress at 500 MiB/s and finish together at 2 s.
  link.start_transfer(1, 1000, XferDir::kIn, [&] { done1 = sim.now(); });
  link.start_transfer(2, 1000, XferDir::kIn, [&] { done2 = sim.now(); });
  EXPECT_EQ(link.active_transfers(), 2u);
  sim.run();
  EXPECT_DOUBLE_EQ(done1, 2.0);
  EXPECT_DOUBLE_EQ(done2, 2.0);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(PcieLink, LateJoinerDilatesInFlightTransfer) {
  Simulator sim;
  PcieLink link(sim, link_config(1000.0));
  SimTime done1 = -1.0;
  SimTime done2 = -1.0;
  link.start_transfer(1, 1000, XferDir::kIn, [&] { done1 = sim.now(); });
  sim.schedule_at(0.5, [&] {
    link.start_transfer(2, 500, XferDir::kOut, [&] { done2 = sim.now(); });
  });
  sim.run();
  // Job 1: 500 MiB alone in [0, 0.5], then 500 MiB at half rate → 1.5 s.
  // Job 2: 500 MiB at half rate from 0.5 → also 1.5 s.
  EXPECT_DOUBLE_EQ(done1, 1.5);
  EXPECT_DOUBLE_EQ(done2, 1.5);
  EXPECT_EQ(link.stats().transfers_in, 1u);
  EXPECT_EQ(link.stats().transfers_out, 1u);
  EXPECT_EQ(link.stats().mib_out, 500);
}

TEST(PcieLink, LatencyChargedAsWireTime) {
  Simulator sim;
  PcieLink link(sim, link_config(1000.0, /*latency_s=*/0.25));
  SimTime done = -1.0;
  link.start_transfer(1, 1000, XferDir::kIn, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 1.25);
}

TEST(PcieLink, CancelJobDropsTransferAndSpeedsUpSurvivors) {
  Simulator sim;
  PcieLink link(sim, link_config(1000.0));
  SimTime done1 = -1.0;
  bool job2_done = false;
  link.start_transfer(1, 1000, XferDir::kIn, [&] { done1 = sim.now(); });
  link.start_transfer(2, 1000, XferDir::kIn, [&] { job2_done = true; });
  // At t=1 each has moved 500 MiB; dropping job 2 lets job 1 finish its
  // remaining 500 MiB at full bandwidth.
  sim.schedule_at(1.0, [&] { link.cancel_job(2); });
  sim.run();
  EXPECT_DOUBLE_EQ(done1, 1.5);
  EXPECT_FALSE(job2_done);
  EXPECT_EQ(link.stats().cancelled, 1u);
  EXPECT_EQ(link.stats().transfers_in, 1u);
  EXPECT_EQ(link.stats().mib_in, 1000);
}

TEST(PcieLink, BusyFractionIntegratesOccupancy) {
  Simulator sim;
  PcieLink link(sim, link_config(1000.0));
  link.start_transfer(1, 1000, XferDir::kIn, nullptr);
  sim.run();  // busy [0, 1]
  sim.schedule_at(3.0, [&] { link.start_transfer(1, 1000, XferDir::kIn, nullptr); });
  sim.run();  // idle [1, 3], busy [3, 4]
  EXPECT_DOUBLE_EQ(link.busy_fraction(4.0), 0.5);
}

TEST(PcieLink, TelemetryRecordsBytesDepthAndEvents) {
  Simulator sim;
  obs::Recorder rec;
  PcieLink link(sim, link_config(1000.0));
  link.attach_telemetry(rec, "phi.test.mic0.pcie");
  link.start_transfer(1, 1000, XferDir::kIn, nullptr);
  link.start_transfer(2, 600, XferDir::kOut, nullptr);
  sim.run();

  const auto snap = obs::take_snapshot(rec, sim.now());
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.pcie.bytes_in"), 1000u);
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.pcie.bytes_out"), 600u);
  EXPECT_GT(snap.metrics.gauges.at("phi.test.mic0.pcie.busy_frac.integral"),
            0.0);
  EXPECT_GT(
      snap.metrics.gauges.at("phi.test.mic0.pcie.transfer_queue_depth.mean"),
      0.0);
  ASSERT_EQ(of_type(rec, "pcie_xfer_begin").size(), 2u);
  ASSERT_EQ(of_type(rec, "pcie_xfer_end").size(), 2u);
  const auto begin = of_type(rec, "pcie_xfer_begin")[0];
  EXPECT_EQ(begin.fields[0].first, "link");
  EXPECT_EQ(begin.fields[0].second, "phi.test.mic0.pcie");
  EXPECT_EQ(begin.fields[2].second, "in");
}

TEST(PcieLink, RejectsNonPositiveBandwidth) {
  Simulator sim;
  PcieLinkConfig c;
  c.bandwidth_mib_s = 0.0;
  EXPECT_THROW(PcieLink(sim, c), std::invalid_argument);
}

}  // namespace
}  // namespace phisched::phi
