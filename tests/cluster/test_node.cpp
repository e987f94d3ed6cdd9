#include "cluster/node.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "condor/ads.hpp"
#include "phi/capability.hpp"

namespace phisched::cluster {
namespace {

class NodeTest : public ::testing::Test {
 protected:
  Node make_node(int devices = 1, int slots = 16) {
    NodeConfig config;
    config.devices.assign(static_cast<std::size_t>(devices),
                          phi::DeviceCapability{});
    config.hw.slots = slots;
    return Node(sim_, 3, config, Rng(1));
  }

  Simulator sim_;
};

TEST_F(NodeTest, Construction) {
  Node node = make_node(2);
  EXPECT_EQ(node.id(), 3);
  EXPECT_EQ(node.device_count(), 2);
  EXPECT_EQ(node.total_slots(), 16);
  EXPECT_EQ(node.free_slots(), 16);
  EXPECT_EQ(node.device(0).usable_memory(), 7680);
  EXPECT_EQ(node.middleware().device_count(), 2u);
}

TEST_F(NodeTest, SlotAccounting) {
  Node node = make_node();
  node.claim_slot();
  node.claim_slot();
  EXPECT_EQ(node.free_slots(), 14);
  node.release_slot();
  EXPECT_EQ(node.free_slots(), 15);
}

TEST_F(NodeTest, SlotUnderflowAndOverflowThrow) {
  Node node = make_node(1, 1);
  node.claim_slot();
  EXPECT_THROW(node.claim_slot(), std::invalid_argument);
  node.release_slot();
  EXPECT_THROW(node.release_slot(), std::invalid_argument);
}

TEST_F(NodeTest, ExclusiveDeviceTracking) {
  Node node = make_node(2);
  EXPECT_EQ(node.free_exclusive_devices(), 2);
  bool admitted = false;
  node.middleware().submit_job(1, {DeviceId{0}}, {.mem_per_device = 1000,
                                                  .threads = 60,
                                                  .base_memory = 16},
                               nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  EXPECT_EQ(node.free_exclusive_devices(), 1);
  node.middleware().finish_job(1);
  EXPECT_EQ(node.free_exclusive_devices(), 2);
}

TEST_F(NodeTest, MachineAdContents) {
  Node node = make_node(2);
  const classad::ClassAd ad = node.machine_ad();
  EXPECT_EQ(ad.eval(condor::kAttrName).to_string(), "\"node3\"");
  EXPECT_EQ(ad.eval_integer(condor::kAttrTotalSlots), 16);
  EXPECT_EQ(ad.eval_integer(condor::kAttrFreeSlots), 16);
  EXPECT_EQ(ad.eval_integer(condor::kAttrPhiDevices), 2);
  EXPECT_EQ(ad.eval_integer(condor::kAttrPhiHwThreads), 240);
  EXPECT_EQ(ad.eval_integer(condor::kAttrPhiFreeDevices), 2);
  EXPECT_EQ(ad.eval_integer(condor::kAttrPhiFreeMemory), 7680);
  EXPECT_EQ(ad.eval_integer(condor::per_device_memory_attr(0)), 7680);
  EXPECT_EQ(ad.eval_integer(condor::per_device_memory_attr(1)), 7680);
  EXPECT_EQ(ad.eval_integer(condor::per_device_threads_attr(0)), 240);
}

TEST_F(NodeTest, MachineAdTracksReservations) {
  Node node = make_node();
  bool admitted = false;
  node.middleware().submit_job(1, {DeviceId{0}}, {.mem_per_device = 3000,
                                                  .threads = 300,
                                                  .base_memory = 16},
                               nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  node.claim_slot();
  const classad::ClassAd ad = node.machine_ad();
  EXPECT_EQ(ad.eval_integer(condor::kAttrFreeSlots), 15);
  EXPECT_EQ(ad.eval_integer(condor::kAttrPhiFreeMemory), 4680);
  EXPECT_EQ(ad.eval_integer(condor::kAttrPhiFreeDevices), 0);
  // Over-reserved threads advertise negative so schedulers see residents.
  EXPECT_EQ(ad.eval_integer(condor::per_device_threads_attr(0)), -60);
}

TEST_F(NodeTest, MachineRequirementsGateOnSlots) {
  NodeConfig config;
  config.hw.slots = 1;
  Node node(sim_, 0, config, Rng(1));
  classad::ClassAd job;
  const classad::ClassAd before = node.machine_ad();
  EXPECT_TRUE(classad::requirements_met(before, job));
  node.claim_slot();
  const classad::ClassAd after = node.machine_ad();
  EXPECT_FALSE(classad::requirements_met(after, job));
}

TEST_F(NodeTest, InvalidConfigurationThrows) {
  NodeConfig config;
  config.devices.clear();
  EXPECT_THROW(Node(sim_, 0, config, Rng(1)), std::invalid_argument);
  config.devices.assign(1, phi::DeviceCapability{});
  config.hw.slots = 0;
  EXPECT_THROW(Node(sim_, 0, config, Rng(1)), std::invalid_argument);
}

TEST_F(NodeTest, DeviceIndexValidation) {
  Node node = make_node(1);
  EXPECT_THROW((void)node.device(1), std::invalid_argument);
  EXPECT_THROW((void)node.device(-1), std::invalid_argument);
}

// --- the kept ad ------------------------------------------------------------

struct Step {
  std::string what;
  /// Whether the step changes what the node's ad advertises.
  bool changes;
  std::function<void()> act;
};

/// Drives `node` through `steps`. After each, the kept ad must equal a
/// fresh build, and advertised_ad() must have rebuilt exactly once if the
/// step changed the ad and not at all otherwise.
void expect_kept_ad_tracks(Node& node, const std::vector<Step>& steps) {
  std::string before = node.advertised_ad().to_string();
  EXPECT_EQ(node.ad_builds(), 1u);
  for (const Step& step : steps) {
    SCOPED_TRACE(step.what);
    const std::uint64_t builds = node.ad_builds();
    step.act();
    const std::string kept = node.advertised_ad().to_string();
    EXPECT_EQ(kept, node.machine_ad().to_string());
    EXPECT_EQ(kept != before, step.changes);
    EXPECT_EQ(node.ad_builds(), builds + (step.changes ? 1 : 0));
    EXPECT_EQ(node.advertised_ad().to_string(), kept);  // asked again
    EXPECT_EQ(node.ad_builds(), builds + (step.changes ? 1 : 0));
    before = kept;
  }
}

TEST_F(NodeTest, KeptAdEqualsAFreshBuildOnAHomogeneousNode) {
  Node node = make_node(2);
  cosmic::NodeMiddleware& mw = node.middleware();
  const auto single = [&mw](JobId job, DeviceId d, MiB mem) {
    mw.submit_job(job, {d}, {.mem_per_device = mem, .threads = 60,
                             .base_memory = 16}, nullptr, nullptr);
  };
  const auto gang = [&mw](JobId job, MiB mem) {
    mw.submit_job(job, {}, {.gang_size = 2, .mem_per_device = mem,
                            .threads = 120, .base_memory = 16},
                  nullptr, nullptr);
  };
  expect_kept_ad_tracks(
      node,
      {{"nothing happens", false, [] {}},
       {"a slot is claimed", true, [&] { node.claim_slot(); }},
       {"a slot is claimed and released", false,
        [&] {
          node.claim_slot();
          node.release_slot();
        }},
       {"a single job lands on card 0", true, [&] { single(1, 0, 2000); }},
       {"a gang of two lands", true, [&] { gang(2, 3000); }},
       {"a gang that does not fit parks", false, [&] { gang(3, 5000); }},
       {"the single job finishes", true, [&] { mw.finish_job(1); }},
       {"the first gang finishes and the parked one is admitted", true,
        [&] { mw.finish_job(2); }},
       {"a gang with the same declaration replaces it", false,
        [&] {
          mw.finish_job(3);
          gang(4, 5000);
        }},
       {"the slot is released", true, [&] { node.release_slot(); }},
       {"the gang finishes", true, [&] { mw.finish_job(4); }}});
}

TEST_F(NodeTest, KeptAdEqualsAFreshBuildOnAMixedNodeWithBandwidth) {
  NodeConfig config;
  config.devices = phi::parse_device_spec("2x5110P+2x7120P");
  config.device.mem_bw.contention = true;
  Node node(sim_, 5, config, Rng(1));
  cosmic::NodeMiddleware& mw = node.middleware();
  const auto submit = [&mw](JobId job, std::vector<DeviceId> cards, MiB mem,
                            double bw) {
    cosmic::JobDeclaration decl;
    decl.gang_size = static_cast<int>(cards.size());
    decl.mem_per_device = mem;
    decl.threads = 60;
    decl.base_memory = 16;
    decl.mem_bw_mib_s = bw;
    mw.submit_job(job, std::move(cards), decl, nullptr, nullptr);
  };
  expect_kept_ad_tracks(
      node,
      {{"nothing happens", false, [] {}},
       {"a single job lands on a 7120P", true,
        [&] { submit(1, {2}, 2000, 20000.0); }},
       {"a gang lands on both generations", true,
        [&] { submit(2, {0, 1, 3}, 1000, 5000.0); }},
       {"a slot is claimed", true, [&] { node.claim_slot(); }},
       {"a job with another bandwidth share takes the single job's card",
        true,
        [&] {
          mw.finish_job(1);
          submit(3, {2}, 2000, 30000.0);
        }},
       {"a job with the same declaration takes its card", false,
        [&] {
          mw.finish_job(3);
          submit(4, {2}, 2000, 30000.0);
        }},
       {"the gang finishes", true, [&] { mw.finish_job(2); }},
       {"the slot is released", true, [&] { node.release_slot(); }},
       {"the last job finishes", true, [&] { mw.finish_job(4); }}});
  // Bandwidth is advertised per card while the model is on.
  EXPECT_TRUE(node.advertised_ad().has(condor::per_device_free_bw_attr(3)));
}

}  // namespace
}  // namespace phisched::cluster
