// Gang (multi-device) job support in the node middleware: all-or-nothing
// reservations across several coprocessors, per-index offload routing,
// and whole-gang teardown.
#include <gtest/gtest.h>

#include <memory>

#include "cosmic/middleware.hpp"
#include "sim/simulator.hpp"

namespace phisched::cosmic {
namespace {

class GangTest : public ::testing::Test {
 protected:
  void build(int devices = 3, MiddlewareConfig config = {}) {
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

  Simulator sim_;
  std::vector<std::unique_ptr<phi::Device>> devices_;
  std::unique_ptr<NodeMiddleware> mw_;
};

TEST_F(GangTest, GangReservesEveryMember) {
  build();
  bool admitted = false;
  mw_->submit_job(1, {}, {.gang_size = 2, .mem_per_device = 3000,
                          .threads = 120, .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  const auto gang = mw_->gang_of(1);
  ASSERT_EQ(gang.size(), 2u);
  EXPECT_NE(gang[0], gang[1]);
  for (DeviceId d : gang) {
    EXPECT_EQ(mw_->unreserved_memory(d), 7680 - 3000);
    EXPECT_EQ(mw_->jobs_on_device(d), 1u);
    EXPECT_TRUE(devices_[static_cast<std::size_t>(d)]->has_process(1));
  }
}

TEST_F(GangTest, PickGangPrefersMostFreeDevices) {
  build(3);
  bool ok = false;
  mw_->submit_job(9, {DeviceId{1}}, {.mem_per_device = 5000, .threads = 60,
                                     .base_memory = 16},
                  nullptr, [&] { ok = true; });
  ASSERT_TRUE(ok);
  const auto gang = mw_->pick_gang(2, 3000);
  ASSERT_EQ(gang.size(), 2u);
  // Device 1 has only 2680 free; the gang must be {0, 2}.
  EXPECT_TRUE((gang[0] == 0 && gang[1] == 2) || (gang[0] == 2 && gang[1] == 0));
}

TEST_F(GangTest, GangParksUntilWholeGangFits) {
  build(2);
  bool blocker = false;
  mw_->submit_job(1, {DeviceId{0}}, {.mem_per_device = 5000, .threads = 60,
                                     .base_memory = 16},
                  nullptr, [&] { blocker = true; });
  ASSERT_TRUE(blocker);
  bool admitted = false;
  mw_->submit_job(2, {}, {.gang_size = 2, .mem_per_device = 4000, .threads = 60,
                          .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  EXPECT_FALSE(admitted);  // device 0 has only 2680 free
  EXPECT_EQ(mw_->waiting_jobs(), 1u);
  mw_->finish_job(1);
  EXPECT_TRUE(admitted);
  EXPECT_EQ(mw_->gang_of(2).size(), 2u);
}

TEST_F(GangTest, OffloadsRouteToTheirGangMember) {
  build();
  bool admitted = false;
  mw_->submit_job(1, {}, {.gang_size = 2, .mem_per_device = 1000,
                          .threads = 240, .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  const auto gang = mw_->gang_of(1);
  SimTime done0 = -1.0;
  SimTime done1 = -1.0;
  // Both offloads use the full 240 threads; on one device they would
  // serialize, across the gang they overlap.
  mw_->request_offload(1, 240, 500, 5.0, [&] { done0 = sim_.now(); },
                       nullptr, /*device_index=*/0);
  mw_->request_offload(1, 240, 500, 5.0, [&] { done1 = sim_.now(); },
                       nullptr, /*device_index=*/1);
  EXPECT_EQ(devices_[static_cast<std::size_t>(gang[0])]->active_thread_demand(),
            240);
  EXPECT_EQ(devices_[static_cast<std::size_t>(gang[1])]->active_thread_demand(),
            240);
  sim_.run();
  EXPECT_DOUBLE_EQ(done0, 5.0);
  EXPECT_DOUBLE_EQ(done1, 5.0);
}

TEST_F(GangTest, OffloadOutsideGangThrows) {
  build();
  bool admitted = false;
  mw_->submit_job(1, {}, {.gang_size = 2, .mem_per_device = 1000, .threads = 60,
                          .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  EXPECT_THROW(
      mw_->request_offload(1, 60, 100, 1.0, nullptr, nullptr, /*index=*/2),
      std::invalid_argument);
}

TEST_F(GangTest, FinishReleasesWholeGang) {
  build();
  bool admitted = false;
  mw_->submit_job(1, {}, {.gang_size = 3, .mem_per_device = 2000, .threads = 60,
                          .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  mw_->finish_job(1);
  for (DeviceId d = 0; d < 3; ++d) {
    EXPECT_EQ(mw_->unreserved_memory(d), 7680);
    EXPECT_EQ(mw_->jobs_on_device(d), 0u);
    EXPECT_EQ(devices_[static_cast<std::size_t>(d)]->process_count(), 0u);
  }
}

TEST_F(GangTest, ContainerKillTearsDownSiblings) {
  build();
  int kills = 0;
  bool admitted = false;
  mw_->submit_job(1, {}, {.gang_size = 2, .mem_per_device = 500, .threads = 60,
                          .base_memory = 16},
                  [&](JobId, phi::KillReason reason) {
                    EXPECT_EQ(reason, phi::KillReason::kContainerLimit);
                    ++kills;
                  },
                  [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  // Start a long offload on member 1, then violate the container on
  // member 0: the whole gang must disappear, exactly one kill callback.
  mw_->request_offload(1, 60, 400, 50.0, nullptr, nullptr, 1);
  mw_->request_offload(1, 60, 2000, 5.0, nullptr, nullptr, 0);
  EXPECT_EQ(kills, 1);
  EXPECT_FALSE(mw_->job_known(1));
  for (DeviceId d = 0; d < 3; ++d) {
    EXPECT_EQ(devices_[static_cast<std::size_t>(d)]->process_count(), 0u);
    EXPECT_EQ(mw_->unreserved_memory(d), 7680);
  }
  sim_.run();  // the long offload's completion was cancelled
}

TEST_F(GangTest, GangLargerThanNodeThrows) {
  build(2);
  EXPECT_THROW(mw_->submit_job(1, {}, {.gang_size = 3, .mem_per_device = 100,
                                       .threads = 60, .base_memory = 16},
                               nullptr, nullptr),
               std::invalid_argument);
}

TEST_F(GangTest, PinnedGangHonoured) {
  build(3);
  bool admitted = false;
  mw_->submit_job(1, {DeviceId{2}, DeviceId{0}}, {.gang_size = 2,
                                                  .mem_per_device = 1000,
                                                  .threads = 60,
                                                  .base_memory = 16},
                  nullptr, [&] { admitted = true; });
  ASSERT_TRUE(admitted);
  EXPECT_EQ(mw_->gang_of(1), (std::vector<DeviceId>{2, 0}));
  EXPECT_EQ(mw_->jobs_on_device(1), 0u);
}

}  // namespace
}  // namespace phisched::cosmic
