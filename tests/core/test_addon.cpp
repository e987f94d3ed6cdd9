#include "core/addon.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "condor/negotiator.hpp"
#include "sim/simulator.hpp"

namespace phisched::core {
namespace {

class AddonTest : public ::testing::Test {
 protected:
  AddonTest() : schedd_(sim_) {}

  void add_machine(NodeId node, MiB free0, ThreadCount free_threads0 = 240) {
    free_mem_[node] = free0;
    free_threads_[node] = free_threads0;
    collector_.advertise(node, [this, node] {
      ++ads_built_[node];
      classad::ClassAd ad;
      ad.insert_string(condor::kAttrName, condor::machine_name(node));
      ad.insert_integer(condor::kAttrFreeSlots, 16);
      ad.insert_integer(condor::kAttrPhiDevices, 1);
      ad.insert_integer(condor::kAttrPhiHwThreads, 240);
      ad.insert_integer(condor::kAttrPhiFreeMemory, free_mem_[node]);
      ad.insert_integer(condor::per_device_memory_attr(0), free_mem_[node]);
      ad.insert_integer(condor::per_device_threads_attr(0),
                        free_threads_[node]);
      return ad;
    });
  }

  void submit(JobId id, MiB mem, ThreadCount threads) {
    workload::JobSpec spec;
    spec.id = id;
    spec.mem_req_mib = mem;
    spec.threads_req = threads;
    schedd_.submit(id, condor::make_job_ad(spec, "false"));
  }

  SharingAwareScheduler make_addon(AddonConfig config = {}) {
    return SharingAwareScheduler(schedd_, make_knapsack_policy({}), config);
  }

  /// One add-on pass over a fresh snapshot of the collector.
  void run(SharingAwareScheduler& addon) {
    addon.pre_cycle(collector_.machine_ads());
  }

  Simulator sim_;
  condor::Schedd schedd_;
  condor::Collector collector_;
  std::map<NodeId, MiB> free_mem_;
  std::map<NodeId, ThreadCount> free_threads_;
  std::map<NodeId, int> ads_built_;
};

TEST_F(AddonTest, PinsJobsViaQedit) {
  add_machine(0, 7680);
  submit(1, 2000, 60);
  auto addon = make_addon();
  run(addon);
  EXPECT_EQ(addon.stats().pins, 1u);
  const auto& ad = schedd_.record(1).ad;
  EXPECT_EQ(ad.eval_integer(condor::kAttrPinnedDevice), 0);
  // The rewritten Requirements accept node0 and nothing else.
  EXPECT_TRUE(classad::requirements_met(ad, collector_.machine_ad(0)));
}

TEST_F(AddonTest, UnpinnedJobsRemainUnmatchable) {
  add_machine(0, 1000);
  submit(1, 2000, 60);  // does not fit anywhere
  auto addon = make_addon();
  run(addon);
  EXPECT_EQ(addon.stats().pins, 0u);
  EXPECT_FALSE(
      classad::requirements_met(schedd_.record(1).ad, collector_.machine_ad(0)));
}

TEST_F(AddonTest, PacksMemoryAcrossCycleBoundaries) {
  add_machine(0, 4000);
  submit(1, 3000, 60);
  submit(2, 3000, 60);
  auto addon = make_addon();
  run(addon);
  EXPECT_EQ(addon.stats().pins, 1u);
  // Second pre-cycle: job 1 still pending (in-flight pin) → its memory is
  // deducted, so job 2 must NOT be pinned onto the same node.
  run(addon);
  EXPECT_EQ(addon.stats().pins, 1u);
}

TEST_F(AddonTest, RepinsAfterJobLeavesQueue) {
  add_machine(0, 4000);
  submit(1, 3000, 60);
  submit(2, 3000, 60);
  auto addon = make_addon();
  run(addon);
  // Job 1 dispatches and completes; the machine ad shows the memory free
  // again (we never changed free_mem_), so job 2 can be pinned now.
  schedd_.mark_matched(1, 0);
  schedd_.mark_running(1);
  schedd_.mark_completed(1);
  run(addon);
  EXPECT_EQ(addon.stats().pins, 2u);
  EXPECT_EQ(schedd_.record(2).ad.eval_integer(condor::kAttrPinnedDevice), 0);
}

TEST_F(AddonTest, SpreadsAcrossNodes) {
  add_machine(0, 7680);
  add_machine(1, 7680);
  for (JobId id = 0; id < 6; ++id) submit(id, 3500, 60);
  auto addon = make_addon();
  run(addon);
  // 2 jobs fit per device by memory → 4 pins over the two nodes.
  EXPECT_EQ(addon.stats().pins, 4u);
  std::map<std::int64_t, int> per_node;
  for (JobId id = 0; id < 6; ++id) {
    const auto& rec = schedd_.record(id);
    if (rec.ad.has(condor::kAttrPinnedDevice)) {
      // Recover the node from the pinned Requirements by matching.
      for (NodeId n = 0; n < 2; ++n) {
        if (classad::requirements_met(rec.ad, collector_.machine_ad(n))) {
          per_node[n] += 1;
        }
      }
    }
  }
  EXPECT_EQ(per_node[0], 2);
  EXPECT_EQ(per_node[1], 2);
}

TEST_F(AddonTest, DeductResidentThreadsUsesAdvertisedThreads) {
  AddonConfig config;
  config.deduct_resident_threads = true;
  config.thread_overcommit = 1.0;
  add_machine(0, 7680, /*free_threads0=*/60);  // 180 threads resident
  submit(1, 1000, 120);
  submit(2, 1000, 60);
  auto addon = make_addon(config);
  run(addon);
  // Budget 60: only the 60-thread job can be pinned.
  EXPECT_EQ(addon.stats().pins, 1u);
  EXPECT_TRUE(schedd_.record(2).ad.has(condor::kAttrPinnedDevice));
  EXPECT_FALSE(schedd_.record(1).ad.has(condor::kAttrPinnedDevice));
}

TEST_F(AddonTest, OvercommitExpandsBudget) {
  AddonConfig config;
  config.deduct_resident_threads = true;
  config.thread_overcommit = 1.5;  // budget = 360 - resident
  add_machine(0, 7680, /*free_threads0=*/0);  // 240 resident
  submit(1, 1000, 120);
  auto addon = make_addon(config);
  run(addon);
  EXPECT_EQ(addon.stats().pins, 1u);  // 360 - 240 = 120 budget fits it
}

TEST_F(AddonTest, NegativeFreeThreadsShrinkBudget) {
  AddonConfig config;
  config.deduct_resident_threads = true;
  config.thread_overcommit = 1.5;
  add_machine(0, 7680, /*free_threads0=*/-120);  // 360 resident already
  submit(1, 1000, 60);
  auto addon = make_addon(config);
  run(addon);
  EXPECT_EQ(addon.stats().pins, 0u);
}

TEST_F(AddonTest, RunsCounted) {
  add_machine(0, 7680);
  auto addon = make_addon();
  run(addon);
  run(addon);
  EXPECT_EQ(addon.stats().runs, 2u);
}

TEST_F(AddonTest, HookReadsTheNegotiatorSnapshot) {
  // Installed as the pre-cycle hook, the add-on reads the negotiator's
  // snapshot, so each node's ad is built once per cycle, not once for
  // the add-on and again for matchmaking.
  add_machine(0, 7680);
  add_machine(1, 7680);
  submit(1, 2000, 60);
  submit(2, 99999, 60);  // fits nowhere: unpinned work every cycle
  auto addon = make_addon();
  condor::Negotiator negotiator(
      sim_, schedd_, collector_, [](JobId, NodeId) { return true; }, {},
      Rng(5));
  negotiator.set_pre_cycle_hook([&addon](const condor::MachineAds& machines) {
    addon.pre_cycle(machines);
  });
  negotiator.run_cycle();
  EXPECT_EQ(addon.stats().pins, 1u);
  EXPECT_EQ(negotiator.stats().matches, 1u);
  EXPECT_EQ(ads_built_[0], 1);
  EXPECT_EQ(ads_built_[1], 1);
  negotiator.run_cycle();
  EXPECT_EQ(addon.stats().runs, 2u);
  EXPECT_EQ(ads_built_[0], 2);
  EXPECT_EQ(ads_built_[1], 2);
}

TEST_F(AddonTest, NullPolicyRejected) {
  EXPECT_THROW(SharingAwareScheduler(schedd_, nullptr, {}),
               std::invalid_argument);
}

TEST_F(AddonTest, OvercommitMustBeFiniteAndBounded) {
  // The budget casts hw_threads * overcommit to an integer; NaN, inf or
  // a huge factor would make that cast undefined.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0,
                           16.5, 1e300}) {
    AddonConfig config;
    config.thread_overcommit = bad;
    EXPECT_THROW(make_addon(config), std::invalid_argument) << bad;
  }
  for (const double good : {0.5, 1.0, 16.0}) {
    AddonConfig config;
    config.thread_overcommit = good;
    EXPECT_NO_THROW(make_addon(config)) << good;
  }
}

}  // namespace
}  // namespace phisched::core
