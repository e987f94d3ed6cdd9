// phi::PcieSwitch — hierarchical contention: a host-side uplink shared
// by every card link on a node. Rates are min(card fair share, switch
// fair share), re-evaluated on any start/finish/cancel node-wide.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "phi/pcie.hpp"
#include "phi/pcie_switch.hpp"
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

PcieSwitchConfig switch_config(double bandwidth_mib_s) {
  PcieSwitchConfig c;
  c.enabled = true;
  c.bandwidth_mib_s = bandwidth_mib_s;
  return c;
}

/// `cards` links of `card_bw` each behind one switch of `switch_bw`.
struct Rig {
  Rig(Simulator& sim, int cards, double card_bw, double switch_bw)
      : sw(sim, switch_config(switch_bw)) {
    for (int c = 0; c < cards; ++c) {
      links.push_back(std::make_unique<PcieLink>(
          sim, link_config(card_bw), "pcie" + std::to_string(c)));
      sw.add_link(*links.back());
    }
  }
  PcieSwitch sw;
  std::vector<std::unique_ptr<PcieLink>> links;
};

TEST(PcieSwitch, DisabledByDefault) {
  Simulator sim;
  PcieSwitch sw(sim, PcieSwitchConfig{});
  EXPECT_FALSE(sw.enabled());
  PcieLink link(sim, link_config(1000.0));
  EXPECT_THROW(sw.add_link(link), std::invalid_argument);
}

TEST(PcieSwitch, RejectsDisabledLinkAndDuplicates) {
  Simulator sim;
  PcieSwitch sw(sim, switch_config(2000.0));
  PcieLink flat(sim, PcieLinkConfig{});
  EXPECT_THROW(sw.add_link(flat), std::invalid_argument);

  PcieLink link(sim, link_config(1000.0));
  sw.add_link(link);
  EXPECT_EQ(link.uplink(), &sw);
  EXPECT_THROW(sw.add_link(link), std::invalid_argument);
  EXPECT_EQ(sw.link_count(), 1u);
}

TEST(PcieSwitch, RejectsNonPositiveBandwidth) {
  Simulator sim;
  PcieSwitchConfig c;
  c.bandwidth_mib_s = 0.0;
  EXPECT_THROW(PcieSwitch(sim, c), std::invalid_argument);
}

TEST(PcieSwitch, WideUplinkMatchesFlatLinkExactly) {
  // With the uplink wide enough to never bind, every timing must be
  // bit-identical to a flat link.
  Simulator flat_sim;
  PcieLink flat(flat_sim, link_config(1000.0, 0.125));
  SimTime flat_done1 = -1.0, flat_done2 = -1.0;
  flat.start_transfer(1, 1000, XferDir::kIn,
                      [&] { flat_done1 = flat_sim.now(); });
  flat_sim.schedule_at(0.5, [&] {
    flat.start_transfer(2, 500, XferDir::kOut,
                        [&] { flat_done2 = flat_sim.now(); });
  });
  flat_sim.run();

  Simulator sim2;
  PcieSwitch sw(sim2, switch_config(1e9));
  PcieLink link(sim2, link_config(1000.0, 0.125));
  sw.add_link(link);
  SimTime done1 = -1.0, done2 = -1.0;
  link.start_transfer(1, 1000, XferDir::kIn, [&] { done1 = sim2.now(); });
  sim2.schedule_at(0.5, [&] {
    link.start_transfer(2, 500, XferDir::kOut, [&] { done2 = sim2.now(); });
  });
  sim2.run();

  EXPECT_EQ(done1, flat_done1);
  EXPECT_EQ(done2, flat_done2);
}

TEST(PcieSwitch, CrossCardContentionCapsAtUplinkFairShare) {
  // Two 1000 MiB/s cards behind a 1000 MiB/s uplink: one transfer per
  // card, each is alone on its card but gets only 500 MiB/s of uplink.
  Simulator sim;
  Rig rig(sim, 2, 1000.0, 1000.0);
  SimTime done1 = -1.0, done2 = -1.0;
  rig.links[0]->start_transfer(1, 1000, XferDir::kIn,
                               [&] { done1 = sim.now(); });
  rig.links[1]->start_transfer(2, 1000, XferDir::kIn,
                               [&] { done2 = sim.now(); });
  EXPECT_EQ(rig.sw.active_transfers(), 2u);
  sim.run();
  EXPECT_DOUBLE_EQ(done1, 2.0);
  EXPECT_DOUBLE_EQ(done2, 2.0);
  EXPECT_EQ(rig.sw.stats().transfers, 2u);
  EXPECT_EQ(rig.sw.stats().mib, 2000);
}

TEST(PcieSwitch, RateIsMinOfCardAndSwitchShares) {
  // Card 0 carries two transfers, card 1 carries one; uplink 1800 MiB/s
  // across three transfers → switch share 600. Card 0's own share is
  // 500 (< 600, card-bound); card 1's transfer alone would get 1000 but
  // is uplink-bound at 600.
  Simulator sim;
  Rig rig(sim, 2, 1000.0, 1800.0);
  SimTime done_b = -1.0;
  rig.links[0]->start_transfer(1, 500, XferDir::kIn, nullptr);
  rig.links[0]->start_transfer(2, 500, XferDir::kIn, nullptr);
  rig.links[1]->start_transfer(3, 600, XferDir::kIn,
                               [&] { done_b = sim.now(); });
  sim.run();
  // Card 0 finishes both at t=1 (500 MiB at 500 MiB/s). Card 1 moves
  // 600 MiB/s * 1 s = 600 MiB in that window → done exactly at 1.0 too.
  EXPECT_DOUBLE_EQ(done_b, 1.0);
}

TEST(PcieSwitch, FinishOnOneCardSpeedsUpTheOther) {
  // Uplink-bound start; when the small transfer drains, the survivor's
  // rate must be re-evaluated node-wide.
  Simulator sim;
  Rig rig(sim, 2, 1000.0, 1000.0);
  SimTime done_small = -1.0, done_big = -1.0;
  rig.links[0]->start_transfer(1, 250, XferDir::kIn,
                               [&] { done_small = sim.now(); });
  rig.links[1]->start_transfer(2, 1000, XferDir::kIn,
                               [&] { done_big = sim.now(); });
  sim.run();
  // Small: 250 MiB at 500 → 0.5 s. Big: 250 MiB by then, remaining 750
  // at the full card rate (uplink now uncontended) → 0.5 + 0.75 = 1.25.
  EXPECT_DOUBLE_EQ(done_small, 0.5);
  EXPECT_DOUBLE_EQ(done_big, 1.25);
}

TEST(PcieSwitch, CancelOnOneCardSpeedsUpTheOther) {
  Simulator sim;
  Rig rig(sim, 2, 1000.0, 1000.0);
  SimTime done = -1.0;
  bool cancelled_done = false;
  rig.links[0]->start_transfer(1, 1000, XferDir::kIn,
                               [&] { done = sim.now(); });
  rig.links[1]->start_transfer(2, 1000, XferDir::kIn,
                               [&] { cancelled_done = true; });
  sim.schedule_at(1.0, [&] { rig.links[1]->cancel_job(2); });
  sim.run();
  // 500 MiB by t=1 at the uplink share, then 500 at full card rate.
  EXPECT_DOUBLE_EQ(done, 1.5);
  EXPECT_FALSE(cancelled_done);
  EXPECT_EQ(rig.sw.stats().cancelled, 1u);
  EXPECT_EQ(rig.sw.stats().transfers, 1u);
}

TEST(PcieSwitch, LateJoinerOnOtherCardDilatesInFlight) {
  Simulator sim;
  Rig rig(sim, 2, 1000.0, 1000.0);
  SimTime done1 = -1.0, done2 = -1.0;
  rig.links[0]->start_transfer(1, 1000, XferDir::kIn,
                               [&] { done1 = sim.now(); });
  sim.schedule_at(0.5, [&] {
    rig.links[1]->start_transfer(2, 500, XferDir::kIn,
                                 [&] { done2 = sim.now(); });
  });
  sim.run();
  // Job 1: 500 MiB alone, then 500 at the 500 MiB/s uplink share → 1.5.
  // Job 2: 500 MiB at 500 MiB/s from 0.5 → also 1.5.
  EXPECT_DOUBLE_EQ(done1, 1.5);
  EXPECT_DOUBLE_EQ(done2, 1.5);
}

TEST(PcieSwitch, BusyFractionIntegratesNodeOccupancy) {
  Simulator sim;
  Rig rig(sim, 2, 1000.0, 1e9);
  rig.links[0]->start_transfer(1, 1000, XferDir::kIn, nullptr);
  sim.run();  // busy [0, 1]
  sim.schedule_at(3.0, [&] {
    rig.links[1]->start_transfer(2, 1000, XferDir::kIn, nullptr);
  });
  sim.run();  // idle [1, 3], busy [3, 4]
  EXPECT_DOUBLE_EQ(rig.sw.busy_fraction(4.0), 0.5);
}

TEST(PcieSwitch, TelemetryRecordsBytesDepthAndEvents) {
  Simulator sim;
  obs::Recorder rec;
  Rig rig(sim, 2, 1000.0, 1000.0);
  rig.sw.attach_telemetry(rec, "phi.node0.pcie_switch");
  rig.links[0]->start_transfer(1, 1000, XferDir::kIn, nullptr);
  rig.links[1]->start_transfer(2, 600, XferDir::kOut, nullptr);
  sim.run();

  const auto snap = obs::take_snapshot(rec, sim.now());
  EXPECT_EQ(snap.metrics.counters.at("phi.node0.pcie_switch.bytes"), 1600u);
  EXPECT_GT(snap.metrics.gauges.at("phi.node0.pcie_switch.busy_frac.integral"),
            0.0);
  EXPECT_GT(
      snap.metrics.gauges.at("phi.node0.pcie_switch.queue_depth.mean"), 0.0);
  ASSERT_EQ(of_type(rec, "pcie_switch_xfer_begin").size(), 2u);
  ASSERT_EQ(of_type(rec, "pcie_switch_xfer_end").size(), 2u);
  const auto begin = of_type(rec, "pcie_switch_xfer_begin")[0];
  EXPECT_EQ(begin.fields[0].first, "switch");
  EXPECT_EQ(begin.fields[0].second, "phi.node0.pcie_switch");
  EXPECT_EQ(begin.fields[2].second, "in");
}

TEST(PcieSwitch, ManyTransferStressCompletesAllWithDriftTolerance) {
  // Regression for the finish() drift check: hundreds of staggered,
  // cross-card transfers force thousands of settle/reconcile rounds
  // whose float residue must stay inside the relative tolerance rather
  // than being clamped away (or tripping the old absolute 1e-6 check).
  Simulator sim;
  Rig rig(sim, 4, 6144.0, 2.0 * 6144.0);
  int completed = 0;
  constexpr int kPerCard = 100;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < kPerCard; ++i) {
      const SimTime at = 0.0009 * i + 0.0002 * c;
      sim.schedule_at(at, [&rig, &completed, c, i] {
        // Deliberately awkward sizes so nothing divides evenly.
        const MiB mib = 7 + 13 * i + 3 * c;
        rig.links[static_cast<std::size_t>(c)]->start_transfer(
            static_cast<JobId>(c * kPerCard + i + 1), mib, XferDir::kIn,
            [&completed] { ++completed; });
      });
    }
  }
  sim.run();
  EXPECT_EQ(completed, 4 * kPerCard);
  EXPECT_EQ(rig.sw.stats().transfers, static_cast<std::uint64_t>(4 * kPerCard));
  EXPECT_EQ(rig.sw.active_transfers(), 0u);
}

}  // namespace
}  // namespace phisched::phi
