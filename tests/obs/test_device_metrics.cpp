// Satellite coverage: drive one phi::Device past its 240 hardware
// threads and past its usable memory, and check the telemetry layer
// counts each oversubscription episode and OOM kill exactly once, with
// matching events.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "phi/device.hpp"
#include "sim/simulator.hpp"

namespace phisched::phi {
namespace {

/// A snapshot's events of one type, in emission order.
std::vector<obs::Event> of_type(const obs::Snapshot& snap,
                                const std::string& type) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : snap.events) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

class DeviceMetricsTest : public ::testing::Test {
 protected:
  Simulator sim_;
  obs::Recorder rec_;
};

TEST_F(DeviceMetricsTest, OversubEpisodeCountedOncePerEpisode) {
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  Device dev(sim_, config, Rng(1));
  dev.attach_telemetry(rec_, "phi.test.mic0");
  dev.attach_process(1, 16, nullptr);
  dev.attach_process(2, 16, nullptr);
  dev.attach_process(3, 16, nullptr);

  // 240 + 240 threads: demand 480 > 240 — the episode begins.
  dev.start_offload(1, 240, 10, 1.0, nullptr);
  dev.start_offload(2, 240, 10, 2.0, nullptr);
  EXPECT_EQ(dev.stats().oversub_episodes, 1u);

  // A third offload joins the SAME episode: still one.
  dev.start_offload(3, 120, 10, 1.0, nullptr);
  EXPECT_EQ(dev.stats().oversub_episodes, 1u);

  sim_.run();  // all offloads drain; the episode ends

  // A fresh overload after recovery is a second episode.
  dev.start_offload(1, 240, 10, 1.0, nullptr);
  dev.start_offload(2, 240, 10, 1.0, nullptr);
  EXPECT_EQ(dev.stats().oversub_episodes, 2u);
  sim_.run();

  const auto snap = obs::take_snapshot(rec_, sim_.now());
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.oversub_episodes"), 2u);
  EXPECT_EQ(rec_.events().of_type("oversub_begin").size(), 2u);
  EXPECT_EQ(rec_.events().of_type("oversub_end").size(), 2u);
}

TEST_F(DeviceMetricsTest, StayingWithinBudgetRecordsNoEpisode) {
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  Device dev(sim_, config, Rng(1));
  dev.attach_telemetry(rec_, "phi.test.mic0");
  dev.attach_process(1, 16, nullptr);
  dev.attach_process(2, 16, nullptr);
  dev.start_offload(1, 120, 10, 1.0, nullptr);
  dev.start_offload(2, 120, 10, 1.0, nullptr);  // exactly 240: not over
  sim_.run();
  EXPECT_EQ(dev.stats().oversub_episodes, 0u);
  const auto snap = obs::take_snapshot(rec_, sim_.now());
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.oversub_episodes"), 0u);
  EXPECT_TRUE(rec_.events().of_type("oversub_begin").empty());
}

TEST_F(DeviceMetricsTest, OomKillCountedOnceWithEvent) {
  Device dev(sim_, DeviceConfig{}, Rng(7));
  dev.attach_telemetry(rec_, "phi.test.mic0");

  int killed = 0;
  KillReason seen = KillReason::kAdmin;
  dev.attach_process(1, 4000, [&](JobId, KillReason r) {
    ++killed;
    seen = r;
  });
  // The device has 8192 - 512 = 7680 usable MiB; the second process
  // pushes residency past it and the OOM killer fires exactly once.
  dev.attach_process(2, 4000, [&](JobId, KillReason r) {
    ++killed;
    seen = r;
  });

  EXPECT_EQ(killed, 1);
  EXPECT_EQ(seen, KillReason::kOom);
  EXPECT_EQ(dev.stats().oom_kills, 1u);

  const auto snap = obs::take_snapshot(rec_, sim_.now());
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.oom_kills"), 1u);
  const auto kills = rec_.events().of_type("kill");
  ASSERT_EQ(kills.size(), 1u);
  ASSERT_GE(kills[0].fields.size(), 3u);
  EXPECT_EQ(kills[0].fields[0].first, "device");
  EXPECT_EQ(kills[0].fields[0].second, "phi.test.mic0");
  EXPECT_EQ(kills[0].fields[2].first, "reason");
  EXPECT_EQ(kills[0].fields[2].second, "oom");
}

TEST_F(DeviceMetricsTest, OffloadCountersAndSpeedSeries) {
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  Device dev(sim_, config, Rng(1));
  dev.attach_telemetry(rec_, "phi.test.mic0");
  dev.attach_process(1, 16, nullptr);
  dev.attach_process(2, 16, nullptr);
  // 2x oversubscription at exponent 3 → speed 1/8 for the whole overlap.
  dev.start_offload(1, 240, 10, 1.0, nullptr);
  dev.start_offload(2, 240, 10, 1.0, nullptr);
  sim_.run();

  const auto snap = obs::take_snapshot(rec_, sim_.now());
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.offloads_started"), 2u);
  EXPECT_EQ(snap.metrics.counters.at("phi.test.mic0.offloads_completed"), 2u);
  // Both offloads ran at speed 0.125 until they finished together.
  EXPECT_NEAR(snap.metrics.gauges.at("phi.test.mic0.speed.mean"), 0.125, 1e-9);
  // The time histogram charged the whole 8-second run to the bin holding
  // speed 0.125 (bin 1 of 10 over [0, 1)).
  const auto& hist =
      snap.metrics.histograms.at("phi.test.mic0.speed_seconds");
  ASSERT_EQ(hist.counts.size(), 10u);
  EXPECT_NEAR(hist.counts[1], sim_.now(), 1e-9);
}

TEST_F(DeviceMetricsTest, ContainerResidencyGaugesTrackProcessLifecycle) {
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  Device dev(sim_, config, Rng(1));
  dev.attach_telemetry(rec_, "phi.test.mic0");
  dev.attach_process(7, 512, nullptr);
  dev.start_offload(7, 60, 256, 1.0, nullptr);
  sim_.run();
  dev.detach_process(7);

  // Residency: 768 MiB (base 512 + working set 256) over the 1 s offload,
  // back to 512 at completion, 0 after detach — the gauge integrates to
  // 768 MiB·s exactly when the drop-to-zero sample lands. Threads follow
  // the running offload: 60 for 1 s.
  const auto snap = obs::take_snapshot(rec_, sim_.now());
  EXPECT_DOUBLE_EQ(
      snap.metrics.gauges.at("phi.test.mic0.container7.resident_mb.integral"),
      768.0);
  EXPECT_DOUBLE_EQ(
      snap.metrics.gauges.at("phi.test.mic0.container7.threads.integral"),
      60.0);
}

TEST_F(DeviceMetricsTest, KilledContainerGaugeDropsToZero) {
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  Device dev(sim_, config, Rng(1));
  dev.attach_telemetry(rec_, "phi.test.mic0");
  dev.attach_process(3, 1000, [](JobId, KillReason) {});
  sim_.schedule_at(2.0, [&] {
    dev.kill_process(3, KillReason::kAdmin);
  });
  sim_.run();
  // 1000 MiB over [0, 2], zero afterwards: integral 2000 however long the
  // snapshot horizon — the kill path records the terminal zero sample.
  const auto snap = obs::take_snapshot(rec_, 5.0);
  EXPECT_DOUBLE_EQ(
      snap.metrics.gauges.at("phi.test.mic0.container3.resident_mb.integral"),
      2000.0);
}

TEST_F(DeviceMetricsTest, OversubEpisodeOpenAtRunEndIsClosed) {
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  Device dev(sim_, config, Rng(1));
  dev.attach_telemetry(rec_, "phi.test.mic0");
  dev.attach_process(1, 16, nullptr);
  dev.attach_process(2, 16, nullptr);
  dev.start_offload(1, 240, 10, 4.0, nullptr);
  dev.start_offload(2, 240, 10, 4.0, nullptr);  // demand 480: episode opens
  sim_.run_until(1.0);  // stop the simulation mid-episode
  // Finalization writes into a snapshot of the recorder, as the
  // harness's result() and snapshot() do.
  obs::Snapshot finalized = obs::take_snapshot(rec_, 1.0);
  dev.finalize_telemetry_into(finalized);

  EXPECT_EQ(dev.stats().oversub_episodes, 1u);
  EXPECT_EQ(of_type(finalized, "oversub_begin").size(), 1u);
  const auto ends = of_type(finalized, "oversub_end");
  ASSERT_EQ(ends.size(), 1u);
  // The synthesized closing event is marked so dashboards can tell a real
  // drain from a truncated run.
  ASSERT_FALSE(ends[0].fields.empty());
  EXPECT_EQ(ends[0].fields.back().first, "at_run_end");
  // The live recorder keeps the episode open: the run may go on.
  EXPECT_TRUE(rec_.events().of_type("oversub_end").empty());
  // Busy-core time integrates up to the stop time, not left at zero.
  EXPECT_GT(dev.core_utilization(1.0), 0.0);

  // Finalizing another snapshot closes the episode there exactly once
  // too.
  obs::Snapshot again = obs::take_snapshot(rec_, 1.0);
  dev.finalize_telemetry_into(again);
  EXPECT_EQ(of_type(again, "oversub_end").size(), 1u);
}

TEST_F(DeviceMetricsTest, DetachedDeviceRecordsNothing) {
  Device dev(sim_, DeviceConfig{}, Rng(1));  // no attach_telemetry
  dev.attach_process(1, 4000, nullptr);
  dev.attach_process(2, 4000, nullptr);  // OOM kill, silently
  EXPECT_EQ(dev.stats().oom_kills, 1u);
  const auto snap = obs::take_snapshot(rec_, sim_.now());
  EXPECT_TRUE(snap.metrics.counters.empty());
  EXPECT_TRUE(snap.events.empty());
}

}  // namespace
}  // namespace phisched::phi
